"""Schema gate for the canonical ``BENCH_serving.json`` trajectory file.

``bench_util.emit_json(..., trajectory="serving")`` merges every serving
benchmark's payload into one root-level document that CI uploads as the
cross-commit trajectory artifact.  A malformed emit (missing row keys, a
dropped ``trajectory`` tag, attribution fractions out of range) would
silently corrupt that trajectory for every later commit — so CI runs this
validator right after the bench smoke and fails the build instead.

Usage::

    python benchmarks/validate_bench.py [path/to/BENCH_serving.json]

``hotpath_decode`` rows (greedy decode tokens/s) must name their
``model``: ``"fp"`` (unquantized) or ``"fmpq"`` (W4Ax GEMMs, KV4 cache),
and a section must hold both, so the quantized decode is always measured.

It is also the gate on live observability's cost: every
``hotpath_obs_cost`` row (attached vs detached engine µs/step at the 1k
scale tier) must stay at or below :data:`OBS_COST_RATIO_LIMIT`.

Exit status 0 when the document validates, 1 with one line per problem
otherwise.  The ``test_*`` functions double as the pytest coverage for
the validator itself (hermetic: they build documents in memory).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = REPO_ROOT / "BENCH_serving.json"

#: Keys every ``hotpath_serving`` row must carry.
SERVING_ROW_KEYS = frozenset({
    "system", "requests", "throughput_tok_s", "ttft_p50_ms", "ttft_p99_ms",
    "tpot_p99_ms", "e2e_p99_s", "e2e_max_s", "attribution",
})

#: Keys every ``hotpath_scale`` row must carry.
SCALE_ROW_KEYS = frozenset({
    "requests", "steps", "peak_batch", "throughput_tok_s",
    "scalar_overhead_us_per_step", "vectorized_overhead_us_per_step",
    "overhead_speedup",
})

#: Keys every ``hotpath_obs_cost`` row must carry.
OBS_COST_ROW_KEYS = frozenset({
    "model", "requests", "steps", "detached_us_per_step",
    "attached_us_per_step", "attached_ratio",
})

#: Keys every ``hotpath_decode`` row must carry.
DECODE_ROW_KEYS = frozenset({
    "model", "prompt_tokens", "new_tokens", "decode_tokens_per_s",
    "us_per_token",
})

#: The ``model`` values of ``hotpath_decode`` rows; each must appear.
DECODE_MODELS = ("fp", "fmpq")

#: Ceiling on attached / detached engine µs/step at the 1k tier.  Set from
#: the measurement after the free-list gauges stopped scanning the pool
#: (2-vCPU x86-64 VM, smoke mode, best of 3, five runs): 2.7-3.2x on the
#: tiny scale-bench model (31.3M-block pool), 1.3-1.7x on llama-3-8b.
#: 4.0 leaves 25% headroom over the worst run.  Before that fix
#: llama-3-8b ran 15.9x slower attached and the scale-bench run did not
#: finish in minutes (2.2 s per heartbeat).
OBS_COST_RATIO_LIMIT = 4.0

#: The attribution fraction keys (repro.obs.attrib ATTRIBUTION_KEYS —
#: spelled out so this gate has no src/ import and runs standalone).
ATTRIBUTION_KEYS = frozenset({
    "queue", "gemm", "attention", "kv_dequant", "overhead", "stall",
})

MODES = ("smoke", "full")


def _check_rows(name: str, payload: object, keys: frozenset,
                errors: list) -> list:
    if not isinstance(payload, dict):
        errors.append(f"{name}: payload is not an object")
        return []
    if payload.get("mode") not in MODES:
        errors.append(f"{name}: mode must be one of {MODES}, "
                      f"got {payload.get('mode')!r}")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append(f"{name}: rows must be a non-empty list")
        return []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"{name}: rows[{i}] is not an object")
            continue
        missing = keys - row.keys()
        if missing:
            errors.append(
                f"{name}: rows[{i}] missing keys {sorted(missing)}"
            )
    return rows


def _check_attribution(name: str, i: int, attribution: object,
                       errors: list) -> None:
    if not isinstance(attribution, dict):
        errors.append(f"{name}: rows[{i}].attribution is not an object")
        return
    missing = ATTRIBUTION_KEYS - attribution.keys()
    if missing:
        errors.append(
            f"{name}: rows[{i}].attribution missing {sorted(missing)}"
        )
    total = 0.0
    for key, value in attribution.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(
                f"{name}: rows[{i}].attribution[{key!r}] is not numeric"
            )
            return
        if not 0.0 <= value <= 1.0:
            errors.append(
                f"{name}: rows[{i}].attribution[{key!r}]={value} "
                "outside [0, 1]"
            )
        total += value
    if total > 0 and abs(total - 1.0) > 1e-6:
        errors.append(
            f"{name}: rows[{i}].attribution fractions sum to {total:.6f}, "
            "expected 1.0"
        )


def _check_obs_cost(name: str, i: int, ratio: object,
                    errors: list) -> None:
    if not isinstance(ratio, (int, float)) or isinstance(ratio, bool):
        errors.append(f"{name}: rows[{i}].attached_ratio is not numeric")
    elif not 0.0 < ratio <= OBS_COST_RATIO_LIMIT:
        errors.append(
            f"{name}: rows[{i}].attached_ratio={ratio:.2f} outside "
            f"(0, {OBS_COST_RATIO_LIMIT:g}]: live observability costs too "
            "much per step"
        )


def _check_decode_models(name: str, rows: list, errors: list) -> None:
    seen = set()
    for i, row in enumerate(rows):
        if isinstance(row, dict) and "model" in row:
            if row["model"] not in DECODE_MODELS:
                errors.append(
                    f"{name}: rows[{i}].model={row['model']!r} not one of "
                    f"{DECODE_MODELS}"
                )
            seen.add(row["model"])
    missing = [m for m in DECODE_MODELS if m not in seen]
    if rows and missing:
        errors.append(f"{name}: no rows for model(s) {missing}")


def validate(doc: object) -> list:
    """All schema problems with a ``BENCH_serving.json`` document."""
    errors: list = []
    if not isinstance(doc, dict):
        return ["document root is not an object"]
    if doc.get("trajectory") != "serving":
        errors.append(
            f"trajectory must be 'serving', got {doc.get('trajectory')!r}"
        )
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        errors.append("benchmarks must be a non-empty object")
        return errors
    if "hotpath_serving" not in benchmarks:
        errors.append("benchmarks.hotpath_serving is required")
    for name, payload in sorted(benchmarks.items()):
        if name == "hotpath_serving":
            rows = _check_rows(name, payload, SERVING_ROW_KEYS, errors)
            for i, row in enumerate(rows):
                if isinstance(row, dict) and "attribution" in row:
                    _check_attribution(
                        name, i, row["attribution"], errors
                    )
        elif name == "hotpath_scale":
            _check_rows(name, payload, SCALE_ROW_KEYS, errors)
        elif name == "hotpath_decode":
            rows = _check_rows(name, payload, DECODE_ROW_KEYS, errors)
            _check_decode_models(name, rows, errors)
        elif name == "hotpath_obs_cost":
            rows = _check_rows(name, payload, OBS_COST_ROW_KEYS, errors)
            for i, row in enumerate(rows):
                if isinstance(row, dict) and "attached_ratio" in row:
                    _check_obs_cost(name, i, row["attached_ratio"], errors)
        # Unknown benchmark names are allowed (future emitters) as long as
        # they keep the {mode, rows} envelope.
        else:
            _check_rows(name, payload, frozenset(), errors)
    return errors


# ---------------------------------------------------------------- pytest


def _good_doc() -> dict:
    return {
        "trajectory": "serving",
        "benchmarks": {
            "hotpath_serving": {
                "mode": "smoke",
                "rows": [{
                    "system": "comet", "requests": 16,
                    "throughput_tok_s": 1800.0, "ttft_p50_ms": 1.0,
                    "ttft_p99_ms": 2.0, "tpot_p99_ms": 0.3,
                    "e2e_p99_s": 0.01, "e2e_max_s": 0.02,
                    "attribution": {
                        "queue": 0.1, "gemm": 0.5, "attention": 0.2,
                        "kv_dequant": 0.1, "overhead": 0.05, "stall": 0.05,
                    },
                }],
            },
        },
    }


def test_accepts_well_formed_document():
    assert validate(_good_doc()) == []


def test_rejects_wrong_trajectory_and_missing_serving():
    doc = _good_doc()
    doc["trajectory"] = "kernels"
    del doc["benchmarks"]["hotpath_serving"]
    doc["benchmarks"]["other"] = {"mode": "smoke", "rows": [{}]}
    errors = validate(doc)
    assert any("trajectory" in e for e in errors)
    assert any("hotpath_serving is required" in e for e in errors)


def test_rejects_missing_row_keys_and_bad_fractions():
    doc = _good_doc()
    row = doc["benchmarks"]["hotpath_serving"]["rows"][0]
    del row["ttft_p99_ms"]
    row["attribution"]["gemm"] = 1.7
    errors = validate(doc)
    assert any("missing keys" in e and "ttft_p99_ms" in e for e in errors)
    assert any("outside [0, 1]" in e for e in errors)


def test_rejects_fraction_sum_drift():
    doc = _good_doc()
    doc["benchmarks"]["hotpath_serving"]["rows"][0]["attribution"][
        "stall"
    ] = 0.5
    errors = validate(doc)
    assert any("sum to" in e for e in errors)


def test_rejects_empty_rows_and_bad_mode():
    doc = _good_doc()
    doc["benchmarks"]["hotpath_serving"]["rows"] = []
    doc["benchmarks"]["hotpath_serving"]["mode"] = "partial"
    errors = validate(doc)
    assert any("non-empty list" in e for e in errors)
    assert any("mode" in e for e in errors)


def _obs_cost_row(ratio: float) -> dict:
    return {
        "model": "llama-3-8b", "requests": 1000, "steps": 576,
        "detached_us_per_step": 1000.0,
        "attached_us_per_step": 1000.0 * ratio, "attached_ratio": ratio,
    }


def test_obs_cost_gate():
    doc = _good_doc()
    doc["benchmarks"]["hotpath_obs_cost"] = {
        "mode": "smoke", "rows": [_obs_cost_row(1.5)],
    }
    assert validate(doc) == []
    rows = doc["benchmarks"]["hotpath_obs_cost"]["rows"]
    rows.append(_obs_cost_row(OBS_COST_RATIO_LIMIT + 0.5))
    del rows[0]["steps"]
    errors = validate(doc)
    assert any("missing keys" in e and "steps" in e for e in errors)
    assert any("costs too much" in e for e in errors)


def _decode_row(model: str) -> dict:
    return {
        "model": model, "prompt_tokens": 8, "new_tokens": 8,
        "decode_tokens_per_s": 100.0, "us_per_token": 10000.0,
    }


def test_decode_rows_need_both_models():
    doc = _good_doc()
    doc["benchmarks"]["hotpath_decode"] = {
        "mode": "smoke", "rows": [_decode_row("fp"), _decode_row("fmpq")],
    }
    assert validate(doc) == []
    rows = doc["benchmarks"]["hotpath_decode"]["rows"]
    rows[1]["model"] = "int8"
    del rows[0]["model"]
    errors = validate(doc)
    assert any("missing keys" in e and "model" in e for e in errors)
    assert any("'int8' not one of" in e for e in errors)
    assert any("no rows for model(s) ['fp', 'fmpq']" in e for e in errors)


def test_committed_document_validates():
    """The repo's own trajectory file must always pass the gate."""
    if not DEFAULT_PATH.exists():
        return  # fresh clone before the first bench run
    errors = validate(json.loads(DEFAULT_PATH.read_text()))
    assert errors == [], "\n".join(errors)


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else DEFAULT_PATH
    if not path.exists():
        print(f"validate_bench: {path} not found", file=sys.stderr)
        return 1
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        print(f"validate_bench: {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return 1
    errors = validate(doc)
    if errors:
        for line in errors:
            print(f"validate_bench: {line}", file=sys.stderr)
        return 1
    print(f"validate_bench: {path} OK "
          f"({len(doc['benchmarks'])} benchmark section(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
