"""Hot-path perf harness: decode cost vs history and batched GEMM throughput.

Guards the two vectorized inference hot paths against regressions:

* **KV4 decode reads** — `QuantizedKVCache` memoizes dequantized sealed
  groups, so a decode step only dequantizes the new token plus the pending
  tail.  The bench appends one token and reads the full cache at growing
  history lengths, for the incremental path and for the O(history)
  full-redequant reference; per-step cost must stay flat in history length.
* **Stacked packed W4Ax GEMM** — `PackedW4AxGEMM.run` executes every
  channel block, W4A4 and W4A8 alike, in one stacked matmul; the bench
  sweeps channel-block counts against a one-block-at-a-time loop over the
  same packed storage (`_per_block_gemm`) and reports the speedup (target:
  >= 5x at 32+ blocks).
* **Model decode** — end-to-end `greedy_generate` tokens/s on a tiny
  transformer with a KV4 cache, unquantized (`model="fp"`) and
  FMPQ-quantized (`model="fmpq"`, every linear a W4Ax GEMM), the number a
  serving stack actually ships.  The rows also land in
  ``BENCH_serving.json``.
* **Observability cost** (``--scale``) — engine µs/step at the 1k scale
  tier with live observability and the cost ledger attached vs detached,
  on the tiny scale-bench model and on llama-3-8b; ``validate_bench.py``
  fails the run above its attached/detached ratio ceiling.

Run standalone (CI ``bench-smoke`` does exactly this)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke

or under pytest like every other ``bench_*`` module.  Results land in
``benchmarks/results/hotpath_{kvcache,gemm,decode}.{txt,json}``; the JSON
files seed the perf trajectory (uploaded as a CI artifact).  Set
``$REPRO_EMIT_METRICS`` to also capture the ``kvcache.*`` hit/miss and
``kernel.gemm_blocks_batched_total`` counters.
"""

from __future__ import annotations

import argparse
import gc
import time

import numpy as np

from bench_util import emit, emit_json, format_table, maybe_emit_metrics
from repro.api import quantize_model
from repro.core.blockwise import (
    BlockConfig,
    BlockPrecisionPlan,
    quantize_activation_blocks,
)
from repro.core.intquant import pack_int4, unpack_int4
from repro.core.kvquant import KVQuantConfig
from repro.core.weightquant import quantize_weight
from repro.data.corpus import SyntheticCorpus
from repro.kernels.conversion import (
    FAST_CONVERSION_SCALE_DIVISOR,
    fast_int4to8,
    pack_int4_words_swapped,
)
from repro.kernels.functional import PackedW4AxGEMM
from repro.model.config import tiny_config
from repro.model.generation import greedy_generate
from repro.model.kvcache import LayerKVCache
from repro.model.transformer import Transformer

# (history lengths, decode steps timed per point, KV group size)
FULL_KV = dict(histories=(64, 256, 1024, 4096), steps=16, group_size=64)
SMOKE_KV = dict(histories=(16, 64, 256), steps=8, group_size=16)
# (block counts, tokens, block size, out features, timing repeats)
FULL_GEMM = dict(blocks=(4, 8, 16, 32, 64), tokens=4, block_size=64,
                 out_features=128, repeats=30)
SMOKE_GEMM = dict(blocks=(4, 16, 32), tokens=2, block_size=32,
                  out_features=64, repeats=10)
# (prompt length, new tokens per point, history lengths reached via prompt)
FULL_DECODE = dict(prompts=(16, 64, 256), new_tokens=32)
SMOKE_DECODE = dict(prompts=(8, 32), new_tokens=8)
# (requests in the simulated serving trace, concurrency cap)
FULL_SERVING = dict(num_requests=48, max_batch=32)
SMOKE_SERVING = dict(num_requests=16, max_batch=8)
# (queued-request tiers for the high-concurrency scaling bench)
FULL_SCALE = dict(tiers=(1000, 4000, 10000), max_batch=512)
SMOKE_SCALE = dict(tiers=(1000,), max_batch=256)
# Step-overhead speedup floors (vectorized vs scalar engine bookkeeping).
SCALE_SPEEDUP_FLOOR = 5.0    # full run, 4k+ tier (ISSUE 7 acceptance)
SCALE_SMOKE_FLOOR = 2.5      # reduced 1k CI variant, noise headroom
# Attached-vs-detached observability cost: requests, timed repeats per mode.
OBS_COST = dict(num_requests=1000, repeats=3)


def _timeit(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` calls."""
    fn()  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


# ---------------------------------------------------------------- KV cache


def run_kvcache_bench(
    histories=(64, 256, 1024), steps=16, group_size=64, heads=4, head_dim=32
):
    """Per-decode-step cost (append 1 token + full read) vs history length."""
    rng = np.random.default_rng(0)
    rows = []
    for hist in histories:
        cache = LayerKVCache(KVQuantConfig(group_size=group_size))
        slab = rng.normal(size=(hist, heads, head_dim)).astype(np.float32)
        cache.append(slab, slab)
        cache.read()  # materialize the memo before timing

        def step(incremental: bool) -> None:
            tok = rng.normal(size=(1, heads, head_dim)).astype(np.float32)
            cache.append(tok, tok)
            if incremental:
                cache.read()
            else:
                cache.k.dequantized_uncached()
                cache.v.dequantized_uncached()

        cached_s = _timeit(lambda: step(True), steps)
        uncached_s = _timeit(lambda: step(False), steps)
        rows.append(
            {
                "history": int(hist),
                "cached_us_per_step": cached_s * 1e6,
                "uncached_us_per_step": uncached_s * 1e6,
                "speedup": uncached_s / cached_s,
            }
        )
    return rows


# -------------------------------------------------------------------- GEMM


def _per_block_gemm(qweight, plan):
    """The pre-stacking execution as a baseline: packed groups stored once,
    then one Python iteration per channel block — on-the-fly conversion of
    that block's group (fast INT4->INT8 for W4A8 blocks, nibble unpack for
    W4A4 blocks), an int64 matmul, and a float32 scale-and-add."""
    groups = range(qweight.num_groups)
    packed = [
        pack_int4_words_swapped(qweight.group_codes(b)) if plan.is_high[b]
        else pack_int4(qweight.group_codes(b))
        for b in groups
    ]

    def run(qact):
        out = np.zeros((qact.num_tokens, qweight.out_features),
                       dtype=np.float32)
        for b in groups:
            if plan.is_high[b]:
                w = fast_int4to8(packed[b]).astype(np.int64)
                divisor = int(FAST_CONVERSION_SCALE_DIVISOR)
            else:
                w = unpack_int4(packed[b]).astype(np.int64)
                divisor = 1
            acc = qact.block_codes(b).astype(np.int64) @ w.T // divisor
            out += (
                acc.astype(np.float32)
                * qact.block_scales(b)[:, None]
                * qweight.group_scales(b)[None, :]
            )
        return out

    return run


def run_gemm_bench(
    blocks=(4, 8, 16, 32, 64),
    tokens=4,
    block_size=64,
    out_features=128,
    repeats=30,
    high_fraction=0.25,
):
    """Stacked vs per-block packed-GEMM latency across channel-block counts."""
    rng = np.random.default_rng(1)
    rows = []
    for nblocks in blocks:
        in_f = nblocks * block_size
        w = rng.normal(size=(out_features, in_f)).astype(np.float32) * 0.2
        x = rng.normal(size=(tokens, in_f)).astype(np.float32)
        qw = quantize_weight(w, group_size=block_size)
        plan = BlockPrecisionPlan(
            config=BlockConfig(block_size=block_size),
            is_high=rng.random(nblocks) < high_fraction,
        )
        qact = quantize_activation_blocks(x, plan)
        gemm = PackedW4AxGEMM(qw, plan=plan)
        per_block = _per_block_gemm(qw, plan)
        assert np.array_equal(gemm.run(qact), per_block(qact))
        batched_s = _timeit(lambda: gemm.run(qact), repeats)
        per_block_s = _timeit(lambda: per_block(qact), repeats)
        rows.append(
            {
                "blocks": int(nblocks),
                "batched_us": batched_s * 1e6,
                "per_block_us": per_block_s * 1e6,
                "speedup": per_block_s / batched_s,
            }
        )
    return rows


# ----------------------------------------------------------- model decode


def run_decode_bench(prompts=(16, 64, 256), new_tokens=32):
    """End-to-end KV4 greedy decode tokens/s on a tiny transformer, once
    unquantized (``model="fp"``) and once FMPQ-quantized (``"fmpq"``)."""
    max_len = max(prompts) + new_tokens + 1
    config = tiny_config(name="hotpath-bench", max_seq_len=max_len)
    qm = quantize_model(
        Transformer(config),
        SyntheticCorpus(vocab_size=config.vocab_size, seed=0),
        group_size=16,
        calib_seq_len=min(64, max_len),
    )
    models = {
        "fp": (Transformer(config), KVQuantConfig()),
        "fmpq": (qm.model, qm.report.kv_config),
    }
    rng = np.random.default_rng(2)
    rows = []
    for plen in prompts:
        prompt = rng.integers(0, config.vocab_size, size=plen)
        for name, (model, kv_config) in models.items():
            t0 = time.perf_counter()
            out = greedy_generate(model, prompt, new_tokens, kv_config=kv_config)
            elapsed = time.perf_counter() - t0
            assert out.shape == (new_tokens,)
            rows.append(
                {
                    "model": name,
                    "prompt_tokens": int(plen),
                    "new_tokens": int(new_tokens),
                    "decode_tokens_per_s": new_tokens / elapsed,
                    "us_per_token": elapsed / new_tokens * 1e6,
                }
            )
    return rows


# -------------------------------------------------------- simulated serving


def run_serving_bench(num_requests=48, max_batch=32):
    """Simulated serving throughput and latency tails, per system.

    Unlike the wall-clock rows above, these numbers come from the engine's
    *simulated* clock, so they are bit-deterministic across machines —
    exactly what a cross-commit trajectory file wants.  Feeds the canonical
    root-level ``BENCH_serving.json``; each row carries the run's latency
    ``attribution`` fractions (repro.obs.attrib cost ledger) so
    ``repro.cli analyze --baseline`` can flag step-phase regressions.
    """
    from repro.obs import live as live_obs
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.metrics import LatencyReport
    from repro.serving.systems import build_system
    from repro.serving.workload import make_poisson_trace

    model = tiny_config(name="serving-bench")
    rows = []
    for system_name in ("comet", "trtllm-fp16"):
        engine = ServingEngine(
            model,
            build_system(system_name),
            config=EngineConfig(max_batch=max_batch),
        )
        requests = make_poisson_trace(
            num_requests, arrival_rate=50.0, mean_prompt_len=64,
            mean_new_tokens=32, seed=3,
        )
        live = live_obs.attach(
            window_seconds=1.0, attrib_capacity=num_requests
        )
        try:
            report = engine.run(requests)
        finally:
            live_obs.detach()
        attribution = live.attrib.aggregate()
        lat = LatencyReport.from_requests(requests)
        rows.append(
            {
                "system": system_name,
                "requests": report.requests_completed,
                "throughput_tok_s": report.throughput,
                "ttft_p50_ms": lat.ttft_p50 * 1e3,
                "ttft_p99_ms": lat.ttft_p99 * 1e3,
                "tpot_p99_ms": lat.tpot_p99 * 1e3,
                "e2e_p99_s": lat.e2e_p99,
                "e2e_max_s": lat.e2e_max,
                "attribution": attribution["fractions"],
                "attribution_dominant": attribution["dominant"],
            }
        )
    return rows


# ------------------------------------------------- high-concurrency scale


def _scale_trace(num_requests: int, seed: int = 9):
    """An overload arrival trace with long histories for the scale tiers.

    All requests arrive inside a short burst (the queue goes thousands
    deep) and prompt lengths cycle through a fixed long-history ladder so
    the engine's per-``m`` latency caches hit — the bench then times
    engine *bookkeeping*, not cost-model evaluation.
    """
    from repro.serving.request import Request

    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 0.25, size=num_requests))
    prompts = (256, 512, 1024, 2048)
    outputs = (64, 96, 128, 192)
    return [
        Request(
            request_id=i,
            prompt_len=prompts[i % len(prompts)],
            max_new_tokens=outputs[i % len(outputs)],
            arrival_time=float(arrivals[i]),
        )
        for i in range(num_requests)
    ]


def run_scale_bench(tiers=(1000, 4000, 10000), max_batch=512):
    """Vectorized vs scalar engine bookkeeping at high concurrency.

    Runs the same overload trace through the engine twice per tier —
    ``EngineConfig.vectorized`` on and off — with a
    :class:`StepPhaseProfiler` attached, and reports the wall-clock
    step-loop overhead (admit + schedule + decode + heartbeat phases;
    the simulated-kernel ``model`` phase is identical work in both modes
    and excluded).  The two reports must be bit-identical — the bench
    asserts it, so the perf row can never come from divergent behavior.
    """
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.stepprof import StepPhaseProfiler
    from repro.serving.systems import build_system

    model = tiny_config(name="scale-bench")
    rows = []
    for n in tiers:
        outcomes = {}
        for vectorized in (False, True):
            engine = ServingEngine(
                model,
                build_system("comet"),
                config=EngineConfig(
                    max_batch=max_batch, vectorized=vectorized
                ),
            )
            prof = StepPhaseProfiler()
            trace = _scale_trace(n)
            # GC pauses land on whichever phase is active and can dwarf
            # the bookkeeping being measured; collect up front, then
            # disable for the timed run so both modes see zero GC noise.
            gc.collect()
            gc.disable()
            try:
                report = engine.run(trace, profiler=prof)
            finally:
                gc.enable()
            outcomes[vectorized] = (report, prof)
        scalar_rep, scalar_prof = outcomes[False]
        vec_rep, vec_prof = outcomes[True]
        assert scalar_rep == vec_rep, (
            f"vectorized engine diverged at tier {n}"
        )
        scalar_us = scalar_prof.per_step_us()
        vec_us = vec_prof.per_step_us()
        rows.append(
            {
                "requests": int(n),
                "steps": int(vec_rep.engine_steps),
                "throughput_tok_s": vec_rep.throughput,
                "peak_batch": int(vec_rep.peak_batch),
                "scalar_overhead_us_per_step": scalar_us["overhead"],
                "vectorized_overhead_us_per_step": vec_us["overhead"],
                "overhead_speedup": (
                    scalar_us["overhead"] / vec_us["overhead"]
                    if vec_us["overhead"] > 0 else float("inf")
                ),
                "vectorized_phases_us_per_step": {
                    p: vec_us[p] for p in ("admit", "schedule", "decode",
                                           "heartbeat", "model")
                },
                "scalar_phases_us_per_step": {
                    p: scalar_us[p] for p in ("admit", "schedule", "decode",
                                              "heartbeat", "model")
                },
            }
        )
    return rows


def run_obs_cost_bench(num_requests=1000, max_batch=512, repeats=3):
    """Live observability's wall cost at a scale tier, per model.

    Serves the same overload trace with live observability (windows,
    flight recorder, SLO monitor, cost ledger) attached and detached and
    reports the engine's wall µs per step in each mode, best of
    ``repeats`` runs.  The reports must be bit-identical: attaching the
    observer may cost time but never change what it observes.
    """
    from repro.model.config import get_model_config
    from repro.obs import live as live_obs
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.systems import build_system

    rows = []
    for model in (tiny_config(name="scale-bench"),
                  get_model_config("llama-3-8b")):
        best = {False: float("inf"), True: float("inf")}
        reports = {}
        for _ in range(repeats):
            for attached in (False, True):
                engine = ServingEngine(
                    model, build_system("comet"),
                    config=EngineConfig(max_batch=max_batch),
                )
                trace = _scale_trace(num_requests)
                if attached:
                    live_obs.attach(
                        window_seconds=1.0, attrib_capacity=num_requests
                    )
                # Same GC policy as run_scale_bench: no collector pauses
                # landing on either mode.
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                try:
                    report = engine.run(trace)
                finally:
                    gc.enable()
                    if attached:
                        live_obs.detach()
                us = (time.perf_counter() - t0) / report.engine_steps * 1e6
                best[attached] = min(best[attached], us)
                reports[attached] = report
        assert reports[True] == reports[False], (
            f"live observability changed the {model.name} report"
        )
        rows.append(
            {
                "model": model.name,
                "requests": int(num_requests),
                "steps": int(reports[False].engine_steps),
                "detached_us_per_step": best[False],
                "attached_us_per_step": best[True],
                "attached_ratio": best[True] / best[False],
            }
        )
    return rows


# ------------------------------------------------------------- harnessing


def run_all(smoke: bool = False, scale: bool = False) -> dict:
    maybe_emit_metrics()
    kv_args = SMOKE_KV if smoke else FULL_KV
    gemm_args = SMOKE_GEMM if smoke else FULL_GEMM
    decode_args = SMOKE_DECODE if smoke else FULL_DECODE
    serving_args = SMOKE_SERVING if smoke else FULL_SERVING
    results = {
        "mode": "smoke" if smoke else "full",
        "kvcache": run_kvcache_bench(**kv_args),
        "gemm": run_gemm_bench(**gemm_args),
        "decode": run_decode_bench(**decode_args),
        "serving": run_serving_bench(**serving_args),
    }
    if scale:
        scale_args = SMOKE_SCALE if smoke else FULL_SCALE
        results["scale"] = run_scale_bench(**scale_args)
        results["obs_cost"] = run_obs_cost_bench(
            max_batch=scale_args["max_batch"], **OBS_COST
        )

    kv = results["kvcache"]
    emit(
        "hotpath_kvcache",
        format_table(
            "Hot path — KV4 decode read cost vs cached history",
            ["history", "cached us/step", "full-redequant us/step", "speedup"],
            [
                [r["history"], r["cached_us_per_step"],
                 r["uncached_us_per_step"], r["speedup"]]
                for r in kv
            ],
            notes=[
                "cached = incremental memoized read (the shipped path);",
                "flat cached cost in history = O(new tokens) per decode step.",
            ],
        ),
    )
    gemm = results["gemm"]
    emit(
        "hotpath_gemm",
        format_table(
            "Hot path — stacked vs per-block packed W4Ax GEMM",
            ["blocks", "stacked us", "per-block us", "speedup"],
            [
                [r["blocks"], r["batched_us"], r["per_block_us"], r["speedup"]]
                for r in gemm
            ],
            notes=["target: >= 5x at 32+ blocks (ISSUE 2 acceptance)."],
        ),
    )
    decode = results["decode"]
    emit(
        "hotpath_decode",
        format_table(
            "Hot path — KV4 greedy decode throughput (tiny transformer)",
            ["model", "prompt", "new tokens", "tokens/s", "us/token"],
            [
                [r["model"], r["prompt_tokens"], r["new_tokens"],
                 r["decode_tokens_per_s"], r["us_per_token"]]
                for r in decode
            ],
            notes=["fmpq = W4Ax weights and activations, KV4 cache."],
        ),
    )
    serving = results["serving"]
    emit(
        "hotpath_serving",
        format_table(
            "Hot path — simulated serving throughput and latency tails",
            ["system", "requests", "tok/s", "TTFT p99 ms", "e2e p99 s"],
            [
                [r["system"], r["requests"], r["throughput_tok_s"],
                 r["ttft_p99_ms"], r["e2e_p99_s"]]
                for r in serving
            ],
            notes=["simulated clock: deterministic across machines."],
        ),
    )
    if scale:
        sc = results["scale"]
        emit(
            "hotpath_scale",
            format_table(
                "Scaling tier — engine step-loop overhead, vectorized vs scalar",
                ["requests", "steps", "scalar us/step", "vectorized us/step",
                 "speedup"],
                [
                    [r["requests"], r["steps"],
                     r["scalar_overhead_us_per_step"],
                     r["vectorized_overhead_us_per_step"],
                     r["overhead_speedup"]]
                    for r in sc
                ],
                notes=[
                    "overhead = admit + schedule + decode + heartbeat phases",
                    "(wall clock; the simulated `model` phase is excluded);",
                    f"target: >= {SCALE_SPEEDUP_FLOOR:g}x at the 4k tier "
                    "(ISSUE 7 acceptance). Reports are asserted bit-equal.",
                ],
            ),
        )
        emit_json(
            "hotpath_scale", {"mode": results["mode"], "rows": sc},
            trajectory="serving",
        )
        oc = results["obs_cost"]
        emit(
            "hotpath_obs_cost",
            format_table(
                "Observability cost — engine us/step, live obs attached "
                "vs detached",
                ["model", "requests", "steps", "detached us/step",
                 "attached us/step", "ratio"],
                [
                    [r["model"], r["requests"], r["steps"],
                     r["detached_us_per_step"], r["attached_us_per_step"],
                     r["attached_ratio"]]
                    for r in oc
                ],
                notes=[
                    "wall clock of engine.run / steps, all phases, best of "
                    f"{OBS_COST['repeats']};",
                    "reports asserted bit-equal; validate_bench.py gates "
                    "the ratio.",
                ],
            ),
        )
        emit_json(
            "hotpath_obs_cost", {"mode": results["mode"], "rows": oc},
            trajectory="serving",
        )
    for name in ("kvcache", "gemm"):
        emit_json(f"hotpath_{name}", {"mode": results["mode"], "rows": results[name]})
    emit_json(
        "hotpath_decode", {"mode": results["mode"], "rows": decode},
        trajectory="serving",
    )
    # Simulated serving numbers are deterministic, so they also feed the
    # canonical root-level BENCH_serving.json trajectory document.
    emit_json(
        "hotpath_serving",
        {"mode": results["mode"], "rows": serving},
        trajectory="serving",
    )
    return results


# ------------------------------------------------------------ pytest entry


def test_hotpath_decode_cost_flat_in_history():
    """Incremental reads keep per-step decode cost ~flat as history grows."""
    rows = run_kvcache_bench(**SMOKE_KV)
    first, last = rows[0], rows[-1]
    # 16x more history must not cost anywhere near 16x per step; allow 3x
    # slack for timer noise on tiny workloads.
    assert last["cached_us_per_step"] < 3.0 * first["cached_us_per_step"], rows
    # The full-redequant reference grows with history and must be clearly
    # slower than the incremental path at the largest history.
    assert last["speedup"] > 2.0, rows


def test_hotpath_gemm_batched_beats_per_block():
    """Stacked execution is >= 5x the per-block loop at 32+ blocks."""
    rows = run_gemm_bench(**SMOKE_GEMM)
    big = [r for r in rows if r["blocks"] >= 32]
    assert big, rows
    # Local measurements sit at 10-18x; assert 5x with CI noise in mind.
    assert max(r["speedup"] for r in big) >= 5.0, rows


def test_hotpath_emits_results():
    results = run_all(smoke=True)
    assert results["kvcache"] and results["gemm"] and results["decode"]


def test_scale_vectorized_overhead_speedup():
    """The vectorized engine cuts per-step bookkeeping by the smoke floor
    at the 1k tier (the full 4k tier asserts SCALE_SPEEDUP_FLOOR in the
    ``bench-scale`` run); reports are asserted bit-equal inside the bench."""
    rows = run_scale_bench(**SMOKE_SCALE)
    assert rows
    best = max(r["overhead_speedup"] for r in rows)
    assert best >= SCALE_SMOKE_FLOOR, rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes for CI: seconds, not minutes",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="also run the high-concurrency scaling tiers (1k/4k/10k "
        "queued requests; 1k only with --smoke) and enforce the "
        "step-overhead speedup floor, plus the attached-vs-detached "
        "observability cost at the 1k tier",
    )
    args = parser.parse_args()
    results = run_all(smoke=args.smoke, scale=args.scale)
    if args.scale:
        floor = SCALE_SMOKE_FLOOR if args.smoke else SCALE_SPEEDUP_FLOOR
        gate = [
            r for r in results["scale"]
            if r["requests"] >= (1000 if args.smoke else 4000)
        ]
        worst = min(r["overhead_speedup"] for r in gate)
        if worst < floor:
            raise SystemExit(
                f"scale regression: step-overhead speedup {worst:.2f}x "
                f"is below the {floor:g}x floor"
            )


if __name__ == "__main__":
    main()
