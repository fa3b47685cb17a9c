"""FMPQ: the end-to-end Fine-grained Mixed-Precision Quantization pipeline.

This is the paper's primary algorithmic contribution (Section 3).  Given a
linear layer's weight and calibration activations, FMPQ:

1. collects per-channel activation statistics and flags outlier channels;
2. builds an outlier-clustering channel permutation (weights co-permuted so
   the layer's function is unchanged);
3. partitions the permuted channels into blocks of ``k = 128`` and assigns
   INT8 to outlier blocks, INT4 to the rest;
4. quantizes the (permuted) weight to INT4 with clip search.

The resulting :class:`QuantizedLinear` runs a *functional* mixed-precision
GEMM: activations are block-quantized on the fly, each block is multiplied in
integer arithmetic at its assigned precision, and partial sums are rescaled
and accumulated — exactly the computation the W4Ax kernel performs on GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import instrument
from repro.core.blockwise import (
    BlockConfig,
    BlockPrecisionPlan,
    QuantizedActivation,
    assign_block_precisions,
    quantize_activation_blocks,
)
from repro.core.intquant import INT4, INT8
from repro.core.kvquant import KVQuantConfig
from repro.core.outliers import (
    collect_channel_stats,
    outlier_channel_mask,
)
from repro.core.permutation import (
    ChannelPermutation,
    identity_permutation,
    outlier_clustering_permutation,
)
from repro.core.weightquant import (
    DEFAULT_CLIP_GRID,
    QuantizedWeight,
    quantize_weight,
)

__all__ = [
    "FMPQConfig",
    "LayerQuantStats",
    "QuantizedLinear",
    "block_gemm",
    "block_operand",
    "calibrate_linear",
    "mixed_precision_matmul",
    "weight_operand",
]


@dataclass(frozen=True)
class FMPQConfig:
    """Hyper-parameters of the FMPQ pipeline.

    Attributes:
        block: channel-block partition (size 128, INT4/INT8 by default).
        outlier_threshold: absmax multiple of the median marking a channel
            as an outlier.
        use_permutation: disable to reproduce the Figure 4(c) ablation where
            scattered outliers force many INT8 blocks.
        clip_grid: weight clip-search grid.
        weight_method: ``"clip"`` (OmniQuant-style clip search, the paper's
            setting) or ``"gptq"`` (Hessian-compensated rounding on the
            permuted weights — a composition the paper leaves open).
        kv: KV cache quantization config (KV4 by default).
        force_high_precision: quantize *all* blocks to INT8 — yields the
            W4A8 regime used by the QoQ/QServe comparison.
        force_low_precision: quantize *all* blocks to INT4 — the aggressive
            full-W4A4 regime whose accuracy collapse Table 1 demonstrates.
    """

    block: BlockConfig = field(default_factory=BlockConfig)
    outlier_threshold: float = 8.0
    use_permutation: bool = True
    clip_grid: tuple[float, ...] = DEFAULT_CLIP_GRID
    weight_method: str = "clip"
    kv: KVQuantConfig = field(default_factory=KVQuantConfig)
    force_high_precision: bool = False
    force_low_precision: bool = False

    def __post_init__(self) -> None:
        if self.force_high_precision and self.force_low_precision:
            raise ValueError("cannot force both high and low precision")
        if self.weight_method not in ("clip", "gptq"):
            raise ValueError(
                f"unknown weight_method {self.weight_method!r}; "
                "use 'clip' or 'gptq'"
            )


@dataclass(frozen=True)
class LayerQuantStats:
    """Quantization statistics for one linear layer."""

    num_channels: int
    num_outlier_channels: int
    num_blocks: int
    num_high_blocks: int

    @property
    def outlier_channel_ratio(self) -> float:
        return self.num_outlier_channels / max(self.num_channels, 1)

    @property
    def high_block_fraction(self) -> float:
        return self.num_high_blocks / max(self.num_blocks, 1)

    @property
    def w4a4_gemm_fraction(self) -> float:
        """Fraction of GEMM volume executed as W4A4 (paper: >84%)."""
        return 1.0 - self.high_block_fraction


#: Elements of one token chunk's ``(blocks, tokens, max(g, out))`` stacks in
#: :func:`block_gemm`.  Longer inputs run in token chunks, so a long prefill
#: does not inflate peak memory.
BLOCK_GEMM_STACK_ELEMENTS = 1 << 18


def block_operand(codes: np.ndarray) -> np.ndarray:
    """Lay a ``(blocks, out, g)`` weight-code stack out as the float64
    ``(blocks, g, out)`` operand of :func:`block_gemm`.

    float64 lets numpy dispatch the integer GEMM to BLAS and is still exact:
    every code product is at most ``128 * 128 = 2**14`` in magnitude, so all
    partial sums stay far below ``2**53`` and every float64 addition is exact
    — the accumulator holds the same integers an int32 tensor-core
    accumulator would, in any summation order.
    """
    stack = codes.transpose(0, 2, 1)
    return np.ascontiguousarray(stack, dtype=np.float64)  # staticcheck: ignore[NUM003] -- exact, see above


def weight_operand(qweight: QuantizedWeight) -> np.ndarray:
    """The :func:`block_operand` of a group-quantized weight, one block per
    weight group."""
    return block_operand(
        qweight.codes.reshape(
            qweight.out_features, qweight.num_groups, qweight.group_size
        ).transpose(1, 0, 2)
    )


def _sum_blocks(contrib: np.ndarray) -> np.ndarray:
    """``0 + contrib[0] + contrib[1] + ...`` in float32, in block order.

    numpy starts the sum from add's identity, ``+0.0``, and reduces the
    leading axis as an outer loop of elementwise adds, which is sequential
    in block order — except when the other axes hold a single element,
    where it sums the lone contiguous axis pairwise.  A zero column keeps
    the outer loop in that case.
    """
    if contrib[0].size == 1:
        padded = np.concatenate([contrib, np.zeros_like(contrib)], axis=-1)
        return _sum_blocks(padded)[..., :1]
    return np.add.reduce(contrib, axis=0)


def block_gemm(
    codes: np.ndarray,
    act_scales: np.ndarray,
    operand: np.ndarray,
    weight_scales: np.ndarray,
    acc_divisor: np.ndarray | None = None,
) -> np.ndarray:
    """The W4Ax GEMM over all channel blocks at once.

    Every block's integer product runs in one stacked matmul
    ``(blocks, tokens, g) @ (blocks, g, out)``; each block's accumulator is
    then converted to float32 and scaled as ``(acc * s_a) * s_w``, and the
    blocks are added in block order in float32.

    Args:
        codes: integer activation codes ``(tokens, blocks * g)``.
        act_scales: float32 ``(tokens, blocks)`` activation block scales.
        operand: float64 ``(blocks, g, out)`` weight codes
            (:func:`block_operand`).
        weight_scales: float32 ``(blocks, out)`` weight group scales.
        acc_divisor: optional ``(blocks,)`` powers of two each block's
            accumulator is divided by (exactly) before scaling — the fast
            INT4→INT8 conversion's 16x.

    Returns:
        float32 ``(tokens, out)``.
    """
    blocks, g, out_f = operand.shape
    tokens = codes.shape[0]
    a = codes.reshape(tokens, blocks, g).transpose(1, 0, 2)
    s_a = act_scales.T[:, :, None]
    s_w = weight_scales[:, None, :]
    out = np.empty((tokens, out_f), dtype=np.float32)
    step = max(1, BLOCK_GEMM_STACK_ELEMENTS // max(1, blocks * max(g, out_f)))
    for t0 in range(0, tokens, step):
        t = slice(t0, t0 + step)
        # Exact integer product: |code products| <= 2**14, so every partial
        # sum is an integer far below 2**53 (see block_operand).
        acc = a[:, t].astype(np.float64) @ operand  # staticcheck: ignore[NUM001]
        if acc_divisor is not None:
            acc /= acc_divisor[:, None, None]
        contrib = acc.astype(np.float32)
        contrib *= s_a[:, t]
        contrib *= s_w
        out[t] = _sum_blocks(contrib)
    return out


def mixed_precision_matmul(
    qact: QuantizedActivation,
    qweight: QuantizedWeight,
    operand: np.ndarray | None = None,
) -> np.ndarray:
    """Mixed-precision GEMM ``dequant(qact) @ dequant(qweight).T`` in integer
    arithmetic, all channel blocks at once (:func:`block_gemm`).

    Block ``b`` contributes ``(Aq_b @ Wq_b.T) * s_a[:, b] * s_w[:, b]`` with
    an exact integer product — the numpy stand-in for the tensor core's
    int32 accumulator.

    Args:
        qact: block-quantized activation.
        qweight: group-quantized weight (group size = block size).
        operand: ``weight_operand(qweight)``, when the caller holds it.
    """
    if qweight.group_size != qact.plan.config.block_size:
        raise ValueError(
            "weight group size must equal activation block size "
            f"({qweight.group_size} != {qact.plan.config.block_size})"
        )
    if qweight.in_features != qact.plan.num_channels:
        raise ValueError("weight/activation channel mismatch")
    if operand is None:
        operand = weight_operand(qweight)
    return block_gemm(qact.codes, qact.scales, operand, qweight.scales.T)


@dataclass
class QuantizedLinear:
    """An FMPQ-quantized linear layer ``y = x @ W.T + bias``.

    Attributes:
        qweight: INT4 weight, input channels already permuted.
        permutation: channel permutation applied to incoming activations.
        plan: per-block activation precision plan (over permuted channels).
        bias: optional float bias.
        name: layer name for reporting.
    """

    qweight: QuantizedWeight
    permutation: ChannelPermutation
    plan: BlockPrecisionPlan
    bias: np.ndarray | None = None
    name: str = ""
    #: ``weight_operand(qweight)``, built on the first forward: weights are
    #: fixed after calibration, and a layer that never runs never pays for it.
    _operand: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def in_features(self) -> int:
        return self.qweight.in_features

    @property
    def out_features(self) -> int:
        return self.qweight.out_features

    def quantize_input(self, x: np.ndarray) -> QuantizedActivation:
        """Permute and block-quantize an activation tensor."""
        return quantize_activation_blocks(
            self.permutation.apply_to_activation(np.asarray(x, dtype=np.float32)),
            self.plan,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the functional mixed-precision GEMM.

        Args:
            x: float array ``(..., in_features)``.

        Returns:
            float32 array ``(..., out_features)``.
        """
        qact = self.quantize_input(x)
        if self._operand is None:
            self._operand = weight_operand(self.qweight)
        out = mixed_precision_matmul(qact, self.qweight, self._operand)
        out = out.reshape(*qact.lead_shape, self.out_features)
        if self.bias is not None:
            out = out + self.bias
        return out

    __call__ = forward

    def stats(self) -> LayerQuantStats:
        high = int(self.plan.is_high.sum())
        # Outlier channel count is recoverable from the permutation's metadata
        # only at calibration time; report block-level stats here.
        return LayerQuantStats(
            num_channels=self.in_features,
            num_outlier_channels=-1,
            num_blocks=self.plan.num_blocks,
            num_high_blocks=high,
        )

    def memory_bytes(self) -> int:
        """Serving footprint: packed weight + scales + permutation indices."""
        perm_bytes = 0 if self.permutation.is_identity() else 4 * self.in_features
        bias_bytes = 0 if self.bias is None else 2 * self.out_features
        return self.qweight.memory_bytes() + perm_bytes + bias_bytes


def calibrate_linear(
    weight: np.ndarray,
    calibration_activations: np.ndarray,
    config: FMPQConfig | None = None,
    bias: np.ndarray | None = None,
    name: str = "",
) -> tuple[QuantizedLinear, LayerQuantStats]:
    """Run the full FMPQ calibration pipeline for one linear layer.

    Args:
        weight: float weight ``(out, in)``.
        calibration_activations: float ``(..., in)`` sampled layer inputs.
        config: FMPQ hyper-parameters.
        bias: optional bias ``(out,)``.
        name: layer name carried through to the quantized layer.

    Returns:
        ``(quantized_linear, stats)``.
    """
    config = config or FMPQConfig()
    weight = np.asarray(weight, dtype=np.float32)
    with instrument.span(
        "fmpq.calibrate", cat="fmpq", layer=name, channels=weight.shape[1]
    ):
        with instrument.span("fmpq.collect_stats", cat="fmpq"):
            stats = collect_channel_stats(calibration_activations)
            mask = outlier_channel_mask(stats, config.outlier_threshold)

        with instrument.span("fmpq.permute", cat="fmpq"):
            if config.use_permutation and mask.any():
                perm = outlier_clustering_permutation(mask, scores=stats.score())
            else:
                perm = identity_permutation(weight.shape[1])

        with instrument.span("fmpq.assign_blocks", cat="fmpq"):
            mask_perm = mask[perm.forward]
            plan = assign_block_precisions(mask_perm, config.block)
            if config.force_high_precision:
                plan = BlockPrecisionPlan(
                    config=plan.config,
                    is_high=np.ones(plan.num_blocks, dtype=bool),
                )
            elif config.force_low_precision:
                plan = BlockPrecisionPlan(
                    config=plan.config,
                    is_high=np.zeros(plan.num_blocks, dtype=bool),
                )

        with instrument.span("fmpq.weight_quant", cat="fmpq", method=config.weight_method):
            weight_perm = perm.apply_to_weight(weight)
            if config.weight_method == "gptq":
                # Import here: baselines depend on core, not the other way
                # around.
                from repro.baselines.gptq import gptq_quantize_weight

                calib_flat = np.asarray(
                    calibration_activations, dtype=np.float32
                ).reshape(-1, weight.shape[1])
                qweight = gptq_quantize_weight(
                    weight_perm,
                    perm.apply_to_activation(calib_flat),
                    group_size=config.block.block_size,
                )
            else:
                qweight = quantize_weight(
                    weight_perm,
                    group_size=config.block.block_size,
                    clip_grid=config.clip_grid,
                )
    layer = QuantizedLinear(
        qweight=qweight, permutation=perm, plan=plan, bias=bias, name=name
    )
    layer_stats = LayerQuantStats(
        num_channels=weight.shape[1],
        num_outlier_channels=int(mask.sum()),
        num_blocks=plan.num_blocks,
        num_high_blocks=int(plan.is_high.sum()),
    )
    if instrument.enabled():
        _record_calibration_metrics(layer_stats)
    return layer, layer_stats


def _record_calibration_metrics(stats: LayerQuantStats) -> None:
    m = instrument.metrics()
    m.counter(
        "fmpq.layers_calibrated_total",
        instrument.metric_help("fmpq.layers_calibrated_total"),
    ).inc()
    m.counter(
        "fmpq.channels_total", instrument.metric_help("fmpq.channels_total")
    ).inc(stats.num_channels)
    m.counter(
        "fmpq.outlier_channels_total",
        instrument.metric_help("fmpq.outlier_channels_total"),
    ).inc(stats.num_outlier_channels)
    m.counter(
        "fmpq.blocks_total", instrument.metric_help("fmpq.blocks_total")
    ).inc(stats.num_blocks)
    m.counter(
        "fmpq.high_blocks_total", instrument.metric_help("fmpq.high_blocks_total")
    ).inc(stats.num_high_blocks)
    m.histogram(
        "fmpq.w4a4_block_fraction",
        instrument.metric_help("fmpq.w4a4_block_fraction"),
        buckets=instrument.FRACTION_BUCKETS,
    ).observe(stats.w4a4_gemm_fraction)
