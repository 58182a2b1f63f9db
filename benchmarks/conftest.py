"""Test setup for the benchmark's own code:

    python3 -m pytest -q benchmarks

The benchmark's modules sit next to this file; the package is in ../src.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
