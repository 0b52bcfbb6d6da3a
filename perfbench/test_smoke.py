"""Smoke tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from bcres import decomposition, resolutions  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run_bench(capsys, workload, trace, seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"]
    code = run.main(argv)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return info, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metric_names_match_spec(capsys, workload):
    info, result = run_bench(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 and info["passes"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0 for k, v in result["metrics"].items())

    info, result = run_bench(capsys, workload, trace=1)
    assert result["correct"], "a traced pass broke a busy-layer prediction or changed the output"
    assert info["traced_passes"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    if workload == "ingest-docs":
        assert result["metrics"]["kernel.hochster_betti.calls"]["value"] == 0
    else:
        assert result["metrics"]["kernel.hochster_betti.calls"]["value"] > 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.BUILDERS:
        a = workloads.inputs_digest(workloads.build(name, 3, tiny=True))
        assert a == workloads.inputs_digest(workloads.build(name, 3, tiny=True))
        assert a != workloads.inputs_digest(workloads.build(name, 4, tiny=True))


def test_tampered_betti_table_trips_the_gate():
    family = workloads.fixed_families()
    base = workloads.ideals.stanley_reisner_ideal(workloads.bc_complex(family["U_2_4"]))
    ideal = workloads.derived_ideal(base, "square")
    entries = dict(resolutions.betti_table(ideal, workloads.GFP).entries)
    workloads.check_betti(ideal, entries)
    key = max(entries)
    entries[key] += 1
    with pytest.raises(workloads.CheckFailed):
        workloads.check_betti(ideal, entries)


def test_tampered_verdict_fails_the_run(capsys, monkeypatch):
    real = decomposition.cross_validate

    def tampered(*args, **kwargs):
        report = real(*args, **kwargs)
        report["consistency"]["linearity_iff_two_term"] = "refuted"
        return report

    monkeypatch.setattr(decomposition, "cross_validate", tampered)
    _, result = run_bench(capsys, "xval-corpus", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_overrun_counts_as_failed_not_wrong(capsys, monkeypatch):
    monkeypatch.setattr(run, "OP_DEADLINE_S", 0.01)
    monkeypatch.setattr(run, "SETUPS_PER_PASS", 0)

    def spin():
        while True:
            pass

    monkeypatch.setitem(workloads.BUILDERS, "spin", lambda seed, tiny: [workloads.Op("spin", spin)])
    _, result = run_bench(capsys, "spin", trace=0)
    assert result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert result["metrics"]["ok_ratio"]["value"] == 0


def test_tail_percentile_does_not_move_with_the_pass_count():
    ops = 20
    one_pass = [float(i) for i in range(ops)]
    value, pct = run.tail(one_pass * run.MIN_PASSES, ops)
    assert value == sorted(one_pass * run.MIN_PASSES)[-run.TAIL_BEYOND - 1]
    for passes in (run.MIN_PASSES + 1, run.MIN_PASSES + 3):
        assert run.tail(one_pass * passes, ops) == (value, pct)


def test_clock_scales_by_the_calibration(monkeypatch):
    monkeypatch.setattr(speed, "calibrate", lambda: 2 * speed.REF_S)
    clock = speed.Clock()
    outer = clock.span()
    inner = clock.span()
    sum(range(200000))
    clock.mark()  # settles the first part of both spans
    sum(range(200000))
    clock.close(inner)
    clock.close(outer)
    clock.mark()
    assert 0 < inner.raw <= outer.raw
    assert inner.scaled == pytest.approx(inner.raw / 2)
    assert outer.scaled == pytest.approx(outer.raw / 2)
