"""The simulator workloads: ``scale_burst`` and ``slo_chaos_live``.

Both drive :meth:`ServingEngine.run` on request lists generated here from
the seed.  A *repetition* builds the inputs and a fresh engine (timed as
set-up) and serves them (timed as the run).  Simulated-clock metrics come
from the requests themselves, wall-clock metrics from the median (or
fastest) copy of each window of work the repetitions share, normalised to
the machine's speed around it (:mod:`perfbench.clock`).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.model.config import get_model_config, tiny_config
from repro.obs import live as live_obs
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.paged_kv import PagedKVManager
from repro.serving.request import Phase, Request
from repro.serving.stepprof import PHASES, StepPhaseProfiler
from repro.serving.systems import build_system

from perfbench import clock
from perfbench.checks import check_same_report, check_served
from perfbench.common import (
    LAYER_UNITS,
    MIN_SETUP_SECONDS,
    MIN_SETUPS,
    Outcome,
    another,
    median,
    now,
    peak_rss_mb,
    pct,
    share,
    stratified,
)
from perfbench.spans import SpanIndex, SpanLog, span_lines, write_outputs

#: PagedKVManager methods the engine and the live hooks call, by role.
KV_GAUGES = ("utilization", "fragmentation", "freelist_fragmentation",
             "refcount_distribution")
KV_CALLS = ("can_allocate", "append_token", "append_token_many", "free",
            "blocks_of_rows", "sequence_shared_blocks")
#: Live-observability entry points the engine's hooks feed.
LIVE_CALLS = ("heartbeat", "heartbeat_batch", "sample")
FLIGHT_CALLS = ("queued", "admitted", "first_token", "preempted", "retry",
                "fault", "kv_blocks", "close")
LEDGER_CALLS = ("queued", "admitted", "prefill_done", "first_token",
                "requeued", "close", "step_cost", "prefill_cost",
                "set_pool_summary")


@dataclass(frozen=True)
class ScaleBurst:
    """~10k requests arrive within 0.25 s over a cycled long-prompt ladder:
    the high-concurrency bookkeeping tier, live observability detached."""

    requests: int = 10_000
    burst_s: float = 0.25
    max_batch: int = 512
    prompts: tuple[int, ...] = (256, 512, 1024, 2048)
    outputs: tuple[int, ...] = (64, 96, 128, 192)
    live: bool = False
    #: Request lists per run and least repetitions of list 0 (see :func:`run`).
    traces: int = 1
    repeats: int = 1
    #: Engine loop iterations per timed window (about 10 ms each).
    mark_every: int = 32
    #: Keep each window's fastest normalised copy rather than its median:
    #: the first window holds the collector's two walks of the KV free
    #: list, memory-bound work the reference chunk tracks less closely.
    fastest: bool = True

    def small(self) -> "ScaleBurst":
        return replace(self, requests=200, max_batch=64)

    def make_requests(self, seed: int, part: int = 0) -> list[Request]:
        rng = np.random.default_rng([seed, part])
        arrivals = np.sort(rng.uniform(0.0, self.burst_s, self.requests))
        out_of = rng.permutation(self.requests) % len(self.outputs)
        return [
            Request(
                request_id=i,
                prompt_len=self.prompts[i % len(self.prompts)],
                max_new_tokens=self.outputs[out_of[i]],
                arrival_time=float(arrivals[i]),
            )
            for i in range(self.requests)
        ]

    def build(self) -> ServingEngine:
        return ServingEngine(
            tiny_config(name="scale-bench"),
            build_system("comet"),
            config=EngineConfig(max_batch=self.max_batch),
        )

    def fault_plan(self, seed: int, part: int = 0) -> FaultPlan | None:
        return None


@dataclass(frozen=True)
class SloChaos:
    """Poisson arrivals with TTFT/e2e SLOs on llama-3-8b under a seeded
    fault plan, chunked prefill, optimistic admission, live observability
    and the cost ledger attached."""

    requests: int = 150
    traces: int = 3
    repeats: int = 2
    rate: float = 30.0
    prompt_range: tuple[int, int] = (64, 1024)
    output_range: tuple[int, int] = (8, 128)
    chunk_tokens: int = 512
    ttft_slo: float = 2.0
    e2e_slo: float = 10.0
    max_retries: int = 4
    step_fault_rate: float = 0.005
    kv_loss_rate: float = 0.001
    straggler_rate: float = 0.005
    request_abort_rate: float = 0.01
    live: bool = True
    #: Engine loop iterations per timed window (about 40 ms each).
    mark_every: int = 4
    fastest: bool = False

    def small(self) -> "SloChaos":
        return replace(self, requests=24, traces=2, rate=40.0)

    def make_requests(self, seed: int, part: int = 0) -> list[Request]:
        # Poisson arrivals conditioned on the count: n uniform points in
        # [0, n / rate], so the offered rate is exact and only the
        # burstiness varies with the seed.
        rng = np.random.default_rng([seed, part])
        n = self.requests
        arrivals = np.sort(rng.uniform(0.0, n / self.rate, n))
        prompts = stratified(rng, n, *self.prompt_range)
        outputs = stratified(rng, n, *self.output_range)
        return [
            Request(
                request_id=i,
                prompt_len=int(prompts[i]),
                max_new_tokens=int(outputs[i]),
                arrival_time=float(arrivals[i]),
                ttft_slo=self.ttft_slo,
                e2e_slo=self.e2e_slo,
            )
            for i in range(n)
        ]

    def build(self) -> ServingEngine:
        return ServingEngine(
            get_model_config("llama-3-8b"),
            build_system("comet"),
            config=EngineConfig(
                prefill_chunk_tokens=self.chunk_tokens,
                reserve_full_sequence=False,
                max_retries=self.max_retries,
            ),
        )

    def fault_plan(self, seed: int, part: int = 0) -> FaultPlan | None:
        return FaultPlan(
            seed=seed * self.traces + part,
            step_fault_rate=self.step_fault_rate,
            kv_loss_rate=self.kv_loss_rate,
            straggler_rate=self.straggler_rate,
            request_abort_rate=self.request_abort_rate,
        )


@dataclass
class Inputs:
    """One request list and the engine, fault plan and (when attached)
    live-observability bundle that serve it."""

    #: Set-up seconds, normalised to the reference speed.
    setup_s: float
    requests: list[Request]
    engine: ServingEngine
    faults: FaultPlan | None
    live: live_obs.LiveObs | None
    mark_every: int


def setup(spec, seed: int, part: int = 0, attached: bool | None = None) -> Inputs:
    """Build request list ``part`` and a fresh engine (timed as set-up).

    A full collection first (untimed) frees what earlier servings left and
    zeroes the collector's generation counts, so every serving meets the
    collections a fresh process would: on ``scale_burst`` each one walks
    the 31.3M-entry KV free list, and how many of them fall into a serving
    otherwise depends on what ran before it.
    """
    if attached is None:
        attached = spec.live
    gc.collect()

    def build():
        requests = spec.make_requests(seed, part)
        engine = spec.build()
        live = live_obs.LiveObs(
            attrib_capacity=len(requests)
        ) if attached else None
        return requests, engine, spec.fault_plan(seed, part), live

    built, _, setup_s = clock.timed(build)
    return Inputs(setup_s, *built, spec.mark_every)


@dataclass
class Served:
    report: object
    #: Raw wall seconds of the run, outside the reference chunks.
    wall_s: float
    #: Normalised seconds of each window of ``mark_every`` loop iterations.
    windows: np.ndarray


def serve(inputs: Inputs, profiler=None) -> Served:
    """Serve the inputs, cut into windows by :class:`perfbench.clock.Marks`
    (which forwards the engine's phase marks to ``profiler``)."""
    marks = clock.Marks(inputs.mark_every, inner=profiler)
    if inputs.live is not None:
        live_obs.attach(inputs.live)
    try:
        marks.mark()
        report = inputs.engine.run(
            inputs.requests, faults=inputs.faults, profiler=marks
        )
        marks.mark()
    finally:
        if inputs.live is not None:
            live_obs.detach()
    wall, windows = marks.windows()
    return Served(report, float(wall.sum()), windows)


@dataclass
class _Rep:
    setup_s: float
    served: Served
    requests: list[Request]
    #: PagedKVManager constructor arguments of the engine served on.
    kv_args: tuple

    @property
    def report(self):
        return self.served.report


def _rep(spec, seed: int, label: str, failures: list[str]) -> _Rep:
    inputs = setup(spec, seed)
    served = serve(inputs)
    engine = inputs.engine
    failures += check_served(engine, inputs.requests, served.report, label)
    kv_args = (engine.plan.kv_pool_bytes, engine.plan.kv_bytes_per_token,
               engine.config.block_tokens)
    return _Rep(inputs.setup_s, served, inputs.requests, kv_args)


def serve_detached(spec, seed: int, part: int, label: str,
                   failures: list[str]):
    """Serve request list ``part`` with live observability detached."""
    inputs = setup(spec, seed, part, attached=False)
    report = serve(inputs).report
    failures += check_served(inputs.engine, inputs.requests, report, label)
    return inputs.requests, report


def detached_replay(spec, seed: int, attached, failures: list[str]) -> None:
    """The zero-cost contract: request list 0 served with live
    observability detached reports exactly what the attached run did."""
    _, report = serve_detached(spec, seed, 0, "detached replay", failures)
    failures += check_same_report(attached, report, "attached vs detached")


def _wall(spec, reps: list[_Rep]) -> float:
    """Normalised wall seconds of one serving: the median (or fastest)
    copy of each window, summed.  Every repetition does the same work in
    window ``k`` (the run checks that their reports agree)."""
    n = len(reps[0].served.windows)
    windows = [r.served.windows for r in reps if len(r.served.windows) == n]
    settle = np.min if spec.fastest else np.median
    return float(settle(windows, axis=0).sum())


def _e2e(spec, served, reps: list[_Rep],
         setups: list[float]) -> dict[str, float]:
    """Simulated-clock metrics pool the requests of every request list;
    wall-clock metrics come from the repetitions of list 0."""
    requests = [r for reqs, _ in served for r in reqs]
    reports = [report for _, report in served]
    finished = [r for r in requests if r.phase is Phase.FINISHED]
    ttft = [(r.first_token_time - r.arrival_time) * 1e3 for r in finished]
    tpot = [
        (r.finish_time - r.first_token_time) / (r.generated - 1) * 1e3
        for r in finished if r.generated > 1
    ]
    wall = _wall(spec, reps)
    first = reps[0]
    return {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "served_frac": len(finished) / len(requests),
        "wall_us_per_step": wall / first.report.engine_steps * 1e6,
        "requests_per_wall_s": len(first.requests) / wall,
        "decode_tok_per_s": first.report.output_tokens / wall,
        "ttft_ms_p50": pct(ttft, 50),
        "ttft_ms_p90": pct(ttft, 90),
        "tpot_ms_p50": pct(tpot, 50),
        "tpot_ms_p90": pct(tpot, 90),
        "goodput_tok_s": sum(r.good_output_tokens for r in reports)
        / sum(r.sim_seconds for r in reports),
    }


def run(spec, seed: int, seconds: float, trace: bool, out_dir: Path,
        stem: str) -> Outcome:
    """Serve request list 0 at least ``spec.repeats`` times and as often as
    fits in ``seconds`` (each repeat must report exactly what the first
    did), then the other request lists once, detached, for the
    simulated-clock metrics: attached or detached the reports are the
    same, which the detached replay of list 0 checks."""
    if trace:
        return _run_traced(spec, seed, out_dir, stem)
    failures: list[str] = []
    start = now()
    reps: list[_Rep] = []
    while another(len(reps), spec.repeats, now() - start, seconds):
        rep = _rep(spec, seed, f"repetition {len(reps)}", failures)
        if reps:
            failures += check_same_report(
                reps[0].report, rep.report, f"repetition {len(reps)} vs 0"
            )
            n, m = len(rep.served.windows), len(reps[0].served.windows)
            if n != m:
                failures.append(f"repetition {len(reps)} ran {n} windows, "
                                f"repetition 0 ran {m}")
        reps.append(rep)
    if spec.live:
        detached_replay(spec, seed, reps[0].report, failures)
    served = [(reps[0].requests, reps[0].report)] + [
        serve_detached(spec, seed, k, f"request list {k}", failures)
        for k in range(1, spec.traces)
    ]
    setups = [r.setup_s for r in reps]
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_SECONDS:
        setups.append(setup(spec, seed).setup_s)
    metrics = _e2e(spec, served, reps, setups)
    n = sum(len(reqs) for reqs, _ in served)
    finished = round(metrics["served_frac"] * n)
    return Outcome(
        attempted=n, failed=n - finished, metrics=metrics, failures=failures,
        notes=[f"{spec.traces} request lists, {len(reps)} repetitions of "
               f"list 0 ({reps[0].report.engine_steps} engine steps)"],
    )


# ------------------------------------------------------------- traced run


def _instrument(log: SpanLog, engine: ServingEngine, live) -> None:
    log.wrap(engine, "run", "engine.run", "engine")
    log.wrap(engine, "linear_stack_latency", "costmodel.linear_stack_latency",
             "costmodel")
    log.wrap(engine.system.kernel, "latency", "costmodel.kernel_latency",
             "costmodel")
    log.wrap(engine, "decode_attention_time", "costmodel.decode_attention_time",
             "costmodel", note=lambda a, k, r: (a[1],), fields=("batch",))
    log.wrap(engine, "prefill_attention_time",
             "costmodel.prefill_attention_time", "costmodel")
    kv = engine.kv
    log.wrap(kv, "allocate", "kv.allocate", "kv",
             note=lambda a, k, r: (float(bool(r)),), fields=("ok",))
    log.wrap_all(kv, KV_CALLS, "kv", "kv")
    log.wrap_all(kv, KV_GAUGES, "kv", "kv")
    if live is not None:
        log.wrap_all(live, LIVE_CALLS, "obs.live", "obs")
        log.wrap_all(live.flights, FLIGHT_CALLS, "obs.flights", "obs")
        log.wrap(live.slo, "record", "obs.slo.record", "obs")
        log.wrap_all(live.attrib, LEDGER_CALLS, "obs.attrib", "obs")


def _layers(idx: SpanIndex, report, prof: StepPhaseProfiler, engine,
            construct_s: float, overhead: float) -> dict[str, float]:
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    run_s = idx.inclusive("engine.run")
    per_step = prof.per_step_us()
    for phase in PHASES:
        m[f"engine.{phase}_us_per_step"] = per_step[phase]
    batches = [r.attrs["batch"] for r in idx.named("costmodel.decode_attention_time")]
    m.update({
        "engine.steps": report.engine_steps,
        "engine.mean_batch": float(np.mean(batches)) if batches else 0.0,
        "engine.retries": report.retries,
        "engine.faults_injected": report.faults_injected,
        "engine.preemptions": report.preemptions,
    })
    kernel_calls = idx.count("costmodel.kernel_latency")
    m.update({
        "costmodel.stack_calls": idx.count("costmodel.linear_stack_latency"),
        "costmodel.kernel_calls": kernel_calls,
        "costmodel.self_s": idx.layer_self("costmodel"),
        "costmodel.us_per_kernel_call": share(
            idx.inclusive("costmodel.kernel_latency") * 1e6, kernel_calls
        ),
        "costmodel.run_share": share(idx.layer_inclusive("costmodel"), run_s),
    })
    allocs = idx.named("kv.allocate")
    gauges = [f"kv.{g}" for g in KV_GAUGES]
    gauge_calls = idx.count(*gauges)
    gauge_s = idx.inclusive(*gauges)
    m.update({
        "kv.pool_blocks": engine.kv.num_blocks,
        "kv.construct_s": construct_s,
        "kv.allocate_calls": len(allocs),
        "kv.allocate_ok_ratio": share(
            sum(r.attrs["ok"] for r in allocs), len(allocs)
        ),
        "kv.append_calls": idx.count("kv.append_token", "kv.append_token_many"),
        "kv.free_calls": idx.count("kv.free"),
        "kv.self_s": idx.layer_self("kv"),
        "kv.gauge_calls": gauge_calls,
        "kv.gauge_us_per_call": share(gauge_s * 1e6, gauge_calls),
        "kv.gauge_run_share": share(gauge_s, run_s),
        "obs.heartbeat_calls": idx.count("obs.live.heartbeat",
                                         "obs.live.heartbeat_batch"),
        "obs.self_s": idx.layer_self("obs"),
        "obs.run_share": share(idx.layer_inclusive("obs"), run_s),
        "trace.overhead_frac": overhead,
    })
    return m


def _run_traced(spec, seed: int, out_dir: Path, stem: str) -> Outcome:
    failures: list[str] = []
    # Untraced baseline of the same inputs, for the tracing overhead.
    base = _rep(spec, seed, "untraced repetition", failures)
    # The pool the engine builds in its constructor, built alone (the
    # baseline's engine is gone, so peak memory holds one pool at a time).
    t0 = now()
    pool = PagedKVManager(*base.kv_args)
    construct_s = now() - t0
    del pool

    inputs = setup(spec, seed)
    requests, engine = inputs.requests, inputs.engine
    log = SpanLog()
    _instrument(log, engine, inputs.live)
    prof = StepPhaseProfiler()
    served = serve(inputs, profiler=prof)
    report = served.report
    log.restore()
    failures += check_served(engine, requests, report, "traced repetition")
    failures += check_same_report(base.report, report, "traced vs untraced")
    if spec.live:
        detached_replay(spec, seed, report, failures)

    records = log.records()
    idx = SpanIndex(records)
    metrics = _layers(idx, report, prof, engine, construct_s,
                      served.windows.sum() / base.served.windows.sum() - 1.0)
    trace_path, summary_path = write_outputs(
        out_dir, stem, records,
        {"layers": metrics, "spans": idx.table(),
         "untraced_wall_s": base.served.wall_s,
         "traced_wall_s": served.wall_s},
    )
    n = len(requests)
    finished = sum(1 for r in requests if r.phase is Phase.FINISHED)
    return Outcome(
        attempted=n, failed=n - finished, metrics=metrics, failures=failures,
        notes=[f"spans: {trace_path}", f"layer summary: {summary_path}"]
        + span_lines(idx),
    )

