import pytest

import inputs
import worker


def record(key, op, seconds):
    rec = worker.Record(inputs.Request(key, op, {}), 0.0, seconds, 0, "")
    rec.ref_seconds = seconds
    return rec


def test_typical_latency_weighs_each_slot_once():
    records = [record(f"r{r}/cheap/eval", "closed", 0.01) for r in range(5)]
    records += [record(f"r{r}/dear/eval", "closed", 1.0 + r / 100) for r in range(2)]
    assert worker.typical_latency(records)["closed"] == pytest.approx((0.01 + 1.005) / 2)


def test_slot_strips_only_a_round_prefix():
    assert worker.slot("r12/safe3/eval") == "safe3/eval"
    assert worker.slot("q0/eval") == "q0/eval"


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert worker.percentile(values, 99) == 99
    assert worker.percentile(values, 87.5) == 88


def test_rescale_uses_kernel_times_around_the_request():
    probe = worker.SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 10.0]
    probe.kernel_s = [5e-3, 5e-3, 5e-3, 2e-3]
    ref = worker.KERNEL_REF_S
    # kernel slower than at the reference speed: the request counts shorter
    assert probe.rescale(0.5, 1.0) == pytest.approx(1.0 * ref / 5e-3)
    # no sample in the window: the next one decides
    assert probe.rescale(6.0, 0.1) == pytest.approx(0.1 * ref / 2e-3)


def test_probe_samples_the_kernel():
    probe = worker.SpeedProbe()
    probe.sample()
    assert len(probe.times) == 1 and len(probe.kernel_s) == 1 and probe.kernel_s[0] > 0


def test_setup_repeats_spread_over_the_loop():
    setup = worker.Setup("small-random", 1, None, None)
    setup.times = [0.1]  # the one made before the loop
    step = 30.0 / (worker.SETUP_REPEATS - 1)
    assert not setup.due(step * 0.99, 30.0)
    assert setup.due(step, 30.0)
    setup.times = [0.1] * (worker.SETUP_REPEATS - 1)
    assert not setup.due(29.0, 30.0) and setup.due(30.0, 30.0)
    setup.times = [0.1] * worker.SETUP_REPEATS
    assert not setup.due(100.0, 30.0)
