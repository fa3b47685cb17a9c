"""The benchmark's own tests: reduced-size runs of every workload, and
tampered results that each correctness check must catch.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import clock, numerics, run, sim
from perfbench.checks import check_same_report, check_served
from perfbench.common import E2E_UNITS, LAYER_UNITS

ROOT = Path(__file__).resolve().parents[2]


def test_metric_catalogue_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_prints_every_metric(workload, trace, capsys, tmp_path):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        small=True, out_dir=tmp_path,
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = LAYER_UNITS if trace else E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in out
        ), name
    if trace:
        assert list(tmp_path.glob("*.trace.json"))
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in E2E_UNITS)


def _served(spec, seed=5):
    inputs = sim.setup(spec, seed)
    return inputs.engine, inputs.requests, sim.serve(inputs).report


def test_leaked_kv_block_fails_the_check():
    spec = sim.SloChaos().small()
    engine, requests, report = _served(spec)
    assert check_served(engine, requests, report, "clean") == []
    engine.kv.allocate(10**9, 1)
    failures = check_served(engine, requests, report, "leaky")
    assert any("KV blocks still held" in f for f in failures)


def test_lost_output_token_fails_the_check():
    spec = sim.ScaleBurst().small()
    engine, requests, report = _served(spec)
    requests[7].generated -= 1
    failures = check_served(engine, requests, report, "short")
    assert any("output tokens" in f for f in failures)


def test_attached_detached_mismatch_fails_the_check():
    spec = sim.SloChaos().small()
    _, _, attached = _served(spec)
    clean: list[str] = []
    sim.detached_replay(spec, 5, attached, clean)
    assert clean == []
    tampered = dataclasses.replace(attached, output_tokens=attached.output_tokens + 1)
    failures: list[str] = []
    sim.detached_replay(spec, 5, tampered, failures)
    assert failures == ["attached vs detached: reports differ in output_tokens"]
    assert check_same_report(attached, attached, "same") == []


def test_flipped_token_fails_the_check():
    spec = numerics.W4AxDecode().small()
    prompts = spec.make_prompts(5)
    fp, qm, _ = spec.build()
    passes = [numerics.decode_pass(qm, prompts, spec.new_tokens)]
    clean: list[str] = []
    assert numerics.verify(fp, qm, prompts, passes, spec.new_tokens, clean)[0] == len(prompts)
    assert clean == []
    tokens = passes[0].tokens[1]
    tokens[2] = (tokens[2] + 1) % spec.vocab
    failures: list[str] = []
    matched, _ = numerics.verify(fp, qm, prompts, passes, spec.new_tokens, failures)
    assert matched == len(prompts) - 1
    assert len(failures) == 1 and "sequence 1" in failures[0]


def test_same_seed_same_inputs():
    for spec in (sim.ScaleBurst().small(), sim.SloChaos().small()):
        a, b = spec.make_requests(11), spec.make_requests(11)
        assert [dataclasses.astuple(r) for r in a] == [dataclasses.astuple(r) for r in b]
        assert a != spec.make_requests(12)
    spec = numerics.W4AxDecode().small()
    assert all(np.array_equal(x, y) for x, y in
               zip(spec.make_prompts(11), spec.make_prompts(11)))


def test_normalised_time_follows_the_reference_chunk():
    ref = clock.REFERENCE_S
    assert clock.scale(0.5, ref, ref) == pytest.approx(0.5)
    # A machine twice as slow around the work halves its wall time.
    assert clock.scale(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)


def test_marks_cut_a_run_into_equal_windows():
    spec = sim.ScaleBurst().small()
    counts = []
    for _ in range(2):
        served = sim.serve(sim.setup(spec, 5))
        assert served.wall_s > 0 and (served.windows > 0).all()
        counts.append(len(served.windows))
    assert counts[0] == counts[1] > 1
