"""Metric catalogue and small measurement helpers shared by the workloads."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics (untraced runs), name -> unit.  Every workload
#: reports every one of them; README.md says how each is defined per
#: workload.
E2E_UNITS: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "served_frac": "frac",
    "wall_us_per_step": "us",
    "requests_per_wall_s": "1/s",
    "decode_tok_per_s": "tok/s",
    "ttft_ms_p50": "ms",
    "ttft_ms_p90": "ms",
    "tpot_ms_p50": "ms",
    "tpot_ms_p90": "ms",
    "goodput_tok_s": "tok/s",
}

#: Per-layer metrics (traced runs), name -> unit.  A layer a workload does
#: not touch reports 0.
LAYER_UNITS: dict[str, str] = {
    "engine.admit_us_per_step": "us",
    "engine.schedule_us_per_step": "us",
    "engine.decode_us_per_step": "us",
    "engine.heartbeat_us_per_step": "us",
    "engine.model_us_per_step": "us",
    "engine.steps": "count",
    "engine.mean_batch": "seqs",
    "engine.retries": "count",
    "engine.faults_injected": "count",
    "engine.preemptions": "count",
    "costmodel.stack_calls": "count",
    "costmodel.kernel_calls": "count",
    "costmodel.self_s": "s",
    "costmodel.us_per_kernel_call": "us",
    "costmodel.run_share": "frac",
    "kv.pool_blocks": "count",
    "kv.construct_s": "s",
    "kv.allocate_calls": "count",
    "kv.allocate_ok_ratio": "frac",
    "kv.append_calls": "count",
    "kv.free_calls": "count",
    "kv.self_s": "s",
    "kv.gauge_calls": "count",
    "kv.gauge_us_per_call": "us",
    "kv.gauge_run_share": "frac",
    "obs.heartbeat_calls": "count",
    "obs.self_s": "s",
    "obs.run_share": "frac",
    "fmpq.gemm_calls": "count",
    "fmpq.gemm_self_s": "s",
    "fmpq.gemm_decode_share": "frac",
    "fmpq.gemm_ops": "ops",
    "fmpq.gemm_bytes": "bytes",
    "fmpq.calibrate_s": "s",
    "fmpq.top1_agree_fp": "frac",
    "kvq.append_calls": "count",
    "kvq.read_calls": "count",
    "kvq.self_s": "s",
    "kvq.bytes_dequantized": "bytes",
    "kvq.decode_share": "frac",
    "attn.calls": "count",
    "attn.self_s": "s",
    "attn.prefill_share": "frac",
    "attn.decode_share": "frac",
    "trace.overhead_frac": "frac",
}

#: Setups timed per run at least, and seconds of set-up timed at least (a
#: millisecond set-up needs many samples for a steady median); ``setup_s``
#: is their median.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 0.5


@dataclass
class Outcome:
    """What one workload run hands back to the runner."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def now() -> float:
    return time.perf_counter()


def another(done: int, least: int, elapsed: float, seconds: float) -> bool:
    """Whether to start another repetition: fewer than ``least`` are done,
    or one more of the mean length so far still ends within ``seconds``.
    Whole repetitions fill the budget without running past it by most of
    one (a serving of ``slo_chaos_live`` takes about 10 s)."""
    return done < least or elapsed * (done + 1) / done <= seconds


def median(values) -> float:
    return float(statistics.median(values))


def pct(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default), 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def stratified(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """``n`` log-uniform integers in ``[lo, hi]``, one per stratum.

    Every seed draws one value from each of ``n`` equal-probability strata
    in a seeded order, so the length mix (and with it the offered work) is
    the same from seed to seed while the values themselves still vary.
    """
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))).astype(np.int64)
