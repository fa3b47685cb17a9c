"""The real-numerics workload: ``w4ax_decode``.

A tiny transformer with planted activation outliers is FMPQ-quantized
(W4Ax weights and activations, KV4 cache) through ``repro.api`` and decodes
a seeded prompt set greedily, short prompts (GEMM-bound steps) and long
ones (more KV history per step).  Every forward pass is timed from
outside, normalised to the machine's speed around it (:mod:`perfbench.clock`).
Outside the timed region the tokens are checked against
:func:`greedy_generate` and compared with the unquantized model's argmax
on the same prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.api import quantize_model
from repro.data.corpus import SyntheticCorpus
from repro.model.config import tiny_config
from repro.model.generation import greedy_generate
from repro.model.outlier_injection import inject_outliers
from repro.model.transformer import Transformer, init_params

from perfbench import clock
from perfbench.checks import check_tokens
from perfbench.common import (
    LAYER_UNITS,
    MIN_SETUPS,
    Outcome,
    another,
    median,
    now,
    peak_rss_mb,
    pct,
    share,
)
from perfbench.spans import SpanIndex, SpanLog, span_lines, write_outputs


@dataclass(frozen=True)
class W4AxDecode:
    """Model shape, prompt mix and decode length of ``w4ax_decode``.

    The model (weights, outliers, calibration) and the prompt lengths are
    fixed; the seed draws the prompt tokens and their order.
    """

    d_model: int = 256
    n_layers: int = 4
    n_heads: int = 4
    d_ffn: int = 512
    vocab: int = 256
    group_size: int = 16
    model_seed: int = 0
    #: Prompt lengths: short prompts make GEMM-bound steps, long ones carry
    #: more KV history.  Fixed, so the seed changes what is decoded but not
    #: how much.
    short_lengths: tuple[int, ...] = (16, 20, 24, 32, 40, 48)
    long_lengths: tuple[int, ...] = (192, 256)
    new_tokens: int = 32
    #: Passes over the prompt set per run at least (more as fit in the
    #: run's seconds); each forward call's median normalised copy is
    #: reported.
    passes: int = 4
    #: Fixed evaluation text (corpus sequences, the same for every seed)
    #: for the quality factor of ``goodput_tok_s``.  The generated tokens'
    #: own agreement varies 0.14 (interquartile range / median) from seed
    #: to seed, because one sequence's tokens agree or disagree together.
    eval_sequences: int = 4
    eval_len: int = 256

    def small(self) -> "W4AxDecode":
        return replace(self, d_model=64, d_ffn=128, n_layers=2,
                       short_lengths=(8, 12, 16), long_lengths=(64,),
                       new_tokens=6, passes=2, eval_sequences=2, eval_len=48)

    def make_prompts(self, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        lengths = self.short_lengths + self.long_lengths
        return [
            rng.integers(0, self.vocab, size=lengths[i])
            for i in rng.permutation(len(lengths))
        ]

    def build(self):
        """Unquantized reference, quantized model and calibration seconds."""
        cfg = tiny_config(
            name="w4ax-bench", vocab_size=self.vocab, d_model=self.d_model,
            n_layers=self.n_layers, n_heads=self.n_heads, d_ffn=self.d_ffn,
            max_seq_len=max(self.long_lengths) + self.new_tokens + 1,
        )
        models = []
        for _ in range(2):
            model = Transformer(cfg, params=init_params(cfg, self.model_seed))
            inject_outliers(model, seed=self.model_seed)
            models.append(model)
        fp, model = models
        t0 = now()
        quantized = quantize_model(
            model, SyntheticCorpus(vocab_size=self.vocab, seed=self.model_seed),
            group_size=self.group_size,
        )
        return fp, quantized, now() - t0

    def eval_agreement(self, fp, qm) -> float:
        """Teacher-forced top-1 agreement of the quantized and unquantized
        models over the evaluation text (outside any timed region)."""
        text = SyntheticCorpus(vocab_size=self.vocab, seed=self.model_seed).batch(
            self.eval_sequences, self.eval_len, seed=99
        )
        agree = 0
        for ids in text:
            fp_top1 = np.argmax(fp.forward(ids), axis=-1)
            q_top1 = np.argmax(qm.model.forward(ids, qm.new_cache()), axis=-1)
            agree += int(np.sum(fp_top1 == q_top1))
        return agree / text.size


@dataclass
class _Pass:
    #: Raw wall seconds of the forward calls.
    wall_s: float
    #: Normalised seconds of each prefill and each decode forward call.
    ttft_s: np.ndarray
    tpot_s: np.ndarray
    tokens: list[np.ndarray]

    @property
    def norm_s(self) -> float:
        return float(self.ttft_s.sum() + self.tpot_s.sum())


def decode_pass(qm, prompts, new_tokens: int, ctx: dict | None = None,
                on_cache=None) -> _Pass:
    """Greedy decode of every prompt, timing each forward pass between two
    reference chunks.  ``ctx`` and ``on_cache`` let the traced run label
    spans and wrap caches."""
    model = qm.model
    walls, chunks, prefill, outputs = [], [clock.calibrate()], [], []

    def step(ids, cache) -> int:
        t0 = now()
        logits = model.forward(ids, cache)
        walls.append(now() - t0)
        chunks.append(clock.calibrate())
        return int(np.argmax(logits[-1]))

    for seq, prompt in enumerate(prompts):
        cache = qm.new_cache()
        if on_cache is not None:
            on_cache(cache)
        if ctx is not None:
            ctx.update(request=seq, decode=0)
        prefill.append(len(walls))
        token = step(prompt, cache)
        if ctx is not None:
            ctx["decode"] = 1
        tokens = [token]
        for _ in range(new_tokens - 1):
            token = step(np.array([token]), cache)
            tokens.append(token)
        outputs.append(np.asarray(tokens))
    norm = clock.scale(walls, chunks[:-1], chunks[1:])
    first = np.zeros(len(walls), dtype=bool)
    first[prefill] = True
    return _Pass(float(np.sum(walls)), norm[first], norm[~first], outputs)


def verify(fp, qm, prompts, passes: list[_Pass], new_tokens: int,
           failures: list[str]) -> tuple[int, float]:
    """Check every pass against :func:`greedy_generate` and return the
    number of matching sequences and the top-1 agreement with the
    unquantized model's argmax on the quantized model's prefixes."""
    matched = 0
    agree = positions = 0
    for seq, prompt in enumerate(prompts):
        reference = greedy_generate(
            qm.model, prompt, new_tokens, kv_config=qm.report.kv_config
        )
        ok = True
        for i, p in enumerate(passes):
            bad = check_tokens(p.tokens[seq], reference, f"pass {i} sequence {seq}")
            failures += bad
            ok = ok and not bad
        matched += ok
        tokens = passes[0].tokens[seq]
        logits = fp.forward(np.concatenate([prompt, tokens[:-1]]))
        fp_top1 = np.argmax(logits[len(prompt) - 1:], axis=-1)
        agree += int(np.sum(fp_top1 == tokens))
        positions += len(tokens)
    return matched, agree / positions


def _setups(spec: W4AxDecode, seed: int, count: int = MIN_SETUPS):
    """Time ``count`` set-ups (normalised); keep the last one's objects."""
    times = []
    for _ in range(count):
        (prompts, (fp, qm, calibrate_s)), _, setup_s = clock.timed(
            lambda: (spec.make_prompts(seed), spec.build())
        )
        times.append(setup_s)
    return times, prompts, fp, qm, calibrate_s


def run(spec: W4AxDecode, seed: int, seconds: float, trace: bool,
        out_dir: Path, stem: str) -> Outcome:
    if trace:
        return _run_traced(spec, seed, out_dir, stem)
    setups, prompts, fp, qm, _ = _setups(spec, seed)
    passes: list[_Pass] = []
    start = now()
    while another(len(passes), spec.passes, now() - start, seconds):
        passes.append(decode_pass(qm, prompts, spec.new_tokens))
    failures: list[str] = []
    matched, agree = verify(fp, qm, prompts, passes, spec.new_tokens, failures)
    quality = spec.eval_agreement(fp, qm)
    # Every pass repeats the same forward calls; each call's median
    # normalised copy is kept.
    ttft = np.median([p.ttft_s for p in passes], axis=0) * 1e3
    tpot = np.median([p.tpot_s for p in passes], axis=0) * 1e3
    wall = (ttft.sum() + tpot.sum()) / 1e3
    n = len(prompts)
    tokens = n * spec.new_tokens  # one prefill + new_tokens-1 decodes each
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "served_frac": matched / n,
        "wall_us_per_step": wall / tokens * 1e6,
        "requests_per_wall_s": n / wall,
        "decode_tok_per_s": tokens / wall,
        "ttft_ms_p50": pct(ttft, 50),
        "ttft_ms_p90": pct(ttft, 90),
        "tpot_ms_p50": pct(tpot, 50),
        "tpot_ms_p90": pct(tpot, 90),
        "goodput_tok_s": quality * tokens / wall,
    }
    return Outcome(
        attempted=n, failed=n - matched, metrics=metrics, failures=failures,
        notes=[f"{len(passes)} passes of {n} sequences x {spec.new_tokens} "
               f"tokens; top-1 agreement with the unquantized model "
               f"{agree:.4f} (generated tokens), {quality:.4f} (evaluation "
               f"text)"],
    )


# ------------------------------------------------------------- traced run


def _instrument(log: SpanLog, qm, ctx: dict):
    """Wrap the forward pass (root span), attention, every quantized
    linear; return the hook that wraps each new KV cache."""
    model = qm.model
    log.wrap(model, "forward", "model.forward", "model",
             note=lambda a, k, r: (ctx["request"], ctx["decode"]),
             fields=("request", "decode"))
    for block in model.blocks:
        log.wrap(block.attn, "forward", "attn.forward", "attn")
    originals = model.named_linears()

    def gemm_note(layer):
        flops_per_row = 2 * layer.in_features * layer.out_features
        weight_bytes = layer.memory_bytes()

        def note(args, kwargs, out):
            x = args[0]
            rows = x.size // layer.in_features
            return rows * flops_per_row, x.nbytes + out.nbytes + weight_bytes
        return note

    for name, layer in originals.items():
        model.replace_linear(
            name, log.traced(layer, f"fmpq.gemm.{name}", "fmpq",
                             gemm_note(layer), fields=("ops", "bytes"))
        )

    def put_back() -> None:
        for name, layer in originals.items():
            model.replace_linear(name, layer)

    log.on_restore(put_back)
    cfg = model.config
    token_bytes = 2 * cfg.n_kv_heads * cfg.head_dim * 4  # K and V, float32
    group = qm.report.kv_config.group_size

    def on_cache(cache) -> None:
        for layer in cache.layers:
            seen = {"len": 0, "sealed": 0}

            def read_note(args, kwargs, out, layer=layer, seen=seen):
                # The memo dequantizes newly sealed groups plus the pending
                # tail when it changed since the last read.
                n = len(layer)
                sealed = n // group
                fresh = (sealed - seen["sealed"]) * group
                if n != seen["len"]:
                    fresh += n % group
                seen.update(len=n, sealed=sealed)
                return (fresh * token_bytes,)

            log.wrap(layer, "append", "kvq.append", "kvq")
            log.wrap(layer, "read", "kvq.read", "kvq", note=read_note,
                     fields=("bytes",))

    return on_cache


def _layers(idx: SpanIndex, calibrate_s: float, agree: float,
            overhead: float) -> dict[str, float]:
    m = dict.fromkeys(LAYER_UNITS, 0.0)

    def in_decode(record):
        return idx.root(record).attrs["decode"] == 1

    def in_prefill(record):
        return idx.root(record).attrs["decode"] == 0

    decode_s = sum(
        r.duration for r in idx.named("model.forward") if r.attrs["decode"] == 1
    )
    gemms = [r for r in idx.records if r.cat == "fmpq"]
    reads = idx.named("kvq.read")
    attn_self = idx.layer_self("attn")
    m.update({
        "fmpq.gemm_calls": len(gemms),
        "fmpq.gemm_self_s": idx.layer_self("fmpq"),
        "fmpq.gemm_decode_share": share(idx.layer_self("fmpq", in_decode), decode_s),
        "fmpq.gemm_ops": float(sum(r.attrs["ops"] for r in gemms)),
        "fmpq.gemm_bytes": float(sum(r.attrs["bytes"] for r in gemms)),
        "fmpq.calibrate_s": calibrate_s,
        "fmpq.top1_agree_fp": agree,
        "kvq.append_calls": idx.count("kvq.append"),
        "kvq.read_calls": len(reads),
        "kvq.self_s": idx.layer_self("kvq"),
        "kvq.bytes_dequantized": float(sum(r.attrs["bytes"] for r in reads)),
        "kvq.decode_share": share(idx.layer_self("kvq", in_decode), decode_s),
        "attn.calls": idx.count("attn.forward"),
        "attn.self_s": attn_self,
        "attn.prefill_share": share(
            idx.layer_self("attn", in_prefill), attn_self
        ),
        "attn.decode_share": share(idx.layer_self("attn", in_decode), decode_s),
        "trace.overhead_frac": overhead,
    })
    return m


def _run_traced(spec: W4AxDecode, seed: int, out_dir: Path, stem: str) -> Outcome:
    _, prompts, fp, qm, calibrate_s = _setups(spec, seed, count=1)
    base = decode_pass(qm, prompts, spec.new_tokens)
    log = SpanLog()
    ctx: dict = {}
    on_cache = _instrument(log, qm, ctx)
    traced = decode_pass(qm, prompts, spec.new_tokens, ctx, on_cache)
    log.restore()
    failures: list[str] = []
    matched, agree = verify(fp, qm, prompts, [base, traced], spec.new_tokens,
                             failures)
    records = log.records()
    idx = SpanIndex(records)
    metrics = _layers(idx, calibrate_s, agree, traced.norm_s / base.norm_s - 1.0)
    trace_path, summary_path = write_outputs(
        out_dir, stem, records,
        {"layers": metrics, "spans": idx.table(),
         "untraced_wall_s": base.wall_s, "traced_wall_s": traced.wall_s},
    )
    n = len(prompts)
    return Outcome(
        attempted=n, failed=n - matched, metrics=metrics, failures=failures,
        notes=[f"spans: {trace_path}", f"layer summary: {summary_path}"]
        + span_lines(idx),
    )
