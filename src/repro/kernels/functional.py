"""Functional mixed-precision GEMM through the real storage pipeline.

:func:`repro.core.fmpq.mixed_precision_matmul` is the served numerics.
This module executes the same GEMM the way the CUDA kernel actually would —
from packed storage, through the documented conversion paths — and agrees
with it bit for bit:

W4A8 path (INT8 blocks):
    1. weights stored as swapped-order packed words
       (:func:`pack_int4_words_swapped`);
    2. the 2-instruction fast conversion expands them to INT8 at 16x scale
       (:func:`fast_int4to8`);
    3. the INT8 tensor-core GEMM accumulates exact integers;
    4. the accumulator is divided by
       :data:`FAST_CONVERSION_SCALE_DIVISOR` (exact: it is a multiple of
       16) before the block scales dequantize it.

W4A4 path (INT4 blocks):
    weights and activations stay as packed nibbles
    (:func:`repro.core.intquant.pack_int4`) and unpack straight into the
    INT4 tensor-core GEMM.

Packed groups live in stacked arrays ``(groups, out, packed_k)``.  The
conversion front end turns them into one ``(groups, g, out)`` operand —
fast-converted W4A8 blocks and unpacked W4A4 blocks side by side — and the
whole GEMM, every block of both precisions, runs through the shared stage
:func:`repro.core.fmpq.block_gemm`, as COMET's kernel runs it in one launch.

This is the executable specification of paper Section 4.3.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.blockwise import BlockPrecisionPlan, QuantizedActivation
from repro.core.fmpq import block_gemm, block_operand
from repro.core.intquant import pack_int4, unpack_int4
from repro.core.weightquant import QuantizedWeight
from repro.kernels.conversion import (
    FAST_CONVERSION_SCALE_DIVISOR,
    fast_int4to8,
    pack_int4_words_swapped,
)

__all__ = ["PackedW4AxGEMM"]


class PackedW4AxGEMM:
    """A W4Ax GEMM operating on packed storage.

    Construction packs the weight once into stacked per-group arrays
    (mirroring the offline weight repacking a serving system performs at
    load time); :meth:`run` converts them per the activation's precision
    plan and executes one stacked GEMM over all blocks.

    Args:
        qweight: group-quantized INT4 weight.
        plan: optional activation precision plan.  When the plan is known at
            load time (it is fixed per layer after FMPQ calibration), the
            converted operand is built here so :meth:`run` does no per-call
            conversion work.
    """

    def __init__(
        self, qweight: QuantizedWeight, plan: BlockPrecisionPlan | None = None
    ):
        if qweight.spec.bits != 4:
            raise ValueError("PackedW4AxGEMM requires INT4 weights")
        self.qweight = qweight
        self.group_size = qweight.group_size
        # Offline repacking: stack every group's codes along a leading axis
        # — (groups, out, group_size) — then pack the whole stack at once:
        # swapped word order for the W4A8 fast path, plain nibbles for the
        # W4A4 path.
        codes = qweight.codes.reshape(
            qweight.out_features, qweight.num_groups, self.group_size
        ).transpose(1, 0, 2)
        self._packed_swapped = pack_int4_words_swapped(codes)
        self._packed_nibbles = pack_int4(codes)
        # (groups, out) weight scales, leading axis aligned with the stacks.
        self._scales = np.ascontiguousarray(qweight.scales.T)
        self._prepared_plan: BlockPrecisionPlan | None = None
        self._operand: np.ndarray | None = None
        self._divisor: np.ndarray | None = None
        if plan is not None:
            self._prepare_plan(plan)

    @property
    def out_features(self) -> int:
        return self.qweight.out_features

    @property
    def in_features(self) -> int:
        return self.qweight.in_features

    def _convert(self, plan: BlockPrecisionPlan) -> tuple[np.ndarray, np.ndarray]:
        """Conversion front end: the ``(groups, g, out)`` operand and each
        block's accumulator divisor under ``plan``."""
        if plan.num_blocks != self.qweight.num_groups:
            raise ValueError("plan blocks must match weight groups")
        high, low = plan.is_high, ~plan.is_high
        codes = np.empty(self._packed_nibbles.shape[:-1] + (self.group_size,),
                         dtype=np.int8)
        # W4A8 blocks: 2-instruction fast conversion, values at 16x.
        codes[high] = fast_int4to8(self._packed_swapped[high])
        # W4A4 blocks: plain nibble unpack.
        codes[low] = unpack_int4(self._packed_nibbles[low])
        divisor = np.where(high, FAST_CONVERSION_SCALE_DIVISOR, 1.0)
        return block_operand(codes), divisor

    def _prepare_plan(self, plan: BlockPrecisionPlan) -> None:
        """Load-time conversion of the whole stack for a known plan."""
        self._operand, self._divisor = self._convert(plan)
        self._prepared_plan = plan

    def _validate(self, qact: QuantizedActivation) -> None:
        if qact.plan.config.block_size != self.group_size:
            raise ValueError(
                "activation block size must equal weight group size"
            )
        if qact.plan.num_channels != self.in_features:
            raise ValueError("channel mismatch")

    def run(self, qact: QuantizedActivation) -> np.ndarray:
        """Execute the mixed-precision GEMM from packed storage.

        The converted operand feeds :func:`repro.core.fmpq.block_gemm`, so
        the result equals :func:`repro.core.fmpq.mixed_precision_matmul` bit
        for bit.  Without a prepared plan the weights are converted on the
        fly.
        """
        self._validate(qact)
        plan = qact.plan
        if plan is self._prepared_plan:
            operand, divisor = self._operand, self._divisor
        else:
            operand, divisor = self._convert(plan)
        out = block_gemm(qact.codes, qact.scales, operand, self._scales, divisor)
        if obs.enabled():
            high = int(plan.is_high.sum())
            counter = obs.metrics().counter(
                "kernel.gemm_blocks_batched_total",
                obs.metric_help("kernel.gemm_blocks_batched_total"),
                labelnames=("precision",),
            )
            counter.labels(precision="int4").inc(plan.num_blocks - high)
            counter.labels(precision="int8").inc(high)
        return out
