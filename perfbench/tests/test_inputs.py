import dataclasses
import json

import pytest

import inputs
import worker


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    inputs.build(workload, 5, tmp_path / "a")
    inputs.build(workload, 5, tmp_path / "b")
    inputs.build(workload, 6, tmp_path / "c")
    assert worker.tree_digest(tmp_path / "a") == worker.tree_digest(tmp_path / "b")
    assert worker.tree_digest(tmp_path / "a") != worker.tree_digest(tmp_path / "c")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_round_has_the_same_mix(tmp_path, workload):
    rounds = inputs.build(workload, 0, tmp_path)
    mixes = {tuple(sorted(r.op for r in rnd)) for rnd in rounds}
    assert len(mixes) == 1
    assert {"analyze", "closed", "interval"} <= set(next(iter(mixes)))


def test_small_random_round_passes_its_checks(tmp_path):
    run, RunConfig = worker.import_owpdb()
    rounds = inputs.build("small-random", 0, tmp_path)
    records = worker.issue(run, RunConfig, rounds[0] + rounds[0])
    failed, reasons = worker.check_records(records, run, RunConfig)
    assert (failed, reasons) == (0, [])


def test_a_wrong_answer_fails_its_check(tmp_path):
    run, RunConfig = worker.import_owpdb()
    rounds = inputs.build("small-random", 0, tmp_path)
    records = worker.issue(run, RunConfig, rounds[0])
    rec = next(r for r in records if r.req.op == "closed")
    payload = json.loads(rec.text)
    payload["result"]["value"] += 1e-6
    forged = dataclasses.replace(rec, text=json.dumps(payload, sort_keys=True))
    failed, reasons = worker.check_records([forged], run, RunConfig)
    assert failed >= 1 and "reference" in reasons[0]
