import pytest

import reference
import run


def test_typical_pass_takes_each_operations_median():
    # operation 1 took 1, 2, 3 s; operation 2 took 5, 1, 2 s
    assert run.typical([[1.0, 5.0], [2.0, 1.0], [3.0, 2.0]]) == [2.0, 2.0]


def test_speed_factor_scales_to_the_reference_seconds():
    r, share = reference.REFERENCE_S, reference.COMPUTE_SHARE
    assert reference.speed_factor([r, r]) == pytest.approx(1.0)
    # at half speed a share of the time doubles and the rest stays
    assert reference.speed_factor([2 * r, 2 * r]) == pytest.approx(1 / (2 * share + 1 - share))
    # half the time at full speed, half at half speed: mean speed 0.75
    assert reference.speed_factor([r, 2 * r, r, 2 * r]) == pytest.approx(
        1 / (share / 0.75 + 1 - share)
    )


def test_speed_factor_of_pure_compute_is_the_mean_speed(monkeypatch):
    monkeypatch.setattr(reference, "COMPUTE_SHARE", 1.0)
    r = reference.REFERENCE_S
    assert reference.speed_factor([r, 2 * r, r, 2 * r]) == pytest.approx(0.75)


def test_end_to_end_scales_each_operation_by_its_own_factor():
    passes = [
        run.Pass(traced=False, items=10, latencies=[1.0, 3.0], cpus=[0.5, 1.5], factors=[1.0, 1.0]),
        run.Pass(traced=False, items=10, latencies=[2.0, 2.0], cpus=[1.0, 1.0], factors=[2.0, 2.0]),
    ]
    plain = run.end_to_end(passes, setup=0.1, setup_factor=3.0, peak_rss_mb=20.0, scaled=False)
    assert plain["wall_s"] == 4.0 and plain["cpu_s"] == 2.0
    assert plain["items_per_s"] == 2.5 and plain["setup_s"] == 0.1
    scaled = run.end_to_end(passes, setup=0.1, setup_factor=3.0, peak_rss_mb=20.0)
    # operation 1: 1 s and 4 s, operation 2: 3 s and 4 s
    assert scaled["wall_s"] == pytest.approx(2.5 + 3.5)
    assert scaled["cpu_s"] == pytest.approx(1.25 + 1.75)
    assert scaled["items_per_s"] == pytest.approx(10 / 6)
    assert scaled["setup_s"] == pytest.approx(0.3)
    assert scaled["op_p50_ms"] == pytest.approx(3000.0)
    assert scaled["peak_rss_mb"] == plain["peak_rss_mb"]


def test_a_slow_spell_cancels_out():
    # the host ran the second pass at half speed, workload and reference alike
    fast = run.Pass(traced=False, items=1, latencies=[1.0], cpus=[1.0], factors=[1.0])
    slow = run.Pass(traced=False, items=1, latencies=[2.0], cpus=[2.0], factors=[0.5])
    for passes in ([fast], [slow]):
        metrics = run.end_to_end(passes, setup=0.1, setup_factor=1.0, peak_rss_mb=1.0)
        assert metrics["wall_s"] == pytest.approx(1.0)
