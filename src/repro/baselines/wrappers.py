"""Quantized linear-layer wrappers used by the baseline algorithms.

Each wrapper is a drop-in for :class:`repro.model.layers.Linear` and models a
distinct serving regime:

* :class:`WeightOnlyLinear` — W4A16: INT4 weights dequantized to float before
  the GEMM (GPTQ / AWQ / OmniQuant deployments).
* :class:`DynamicActLinear` — WxAy: group-quantized integer weights with
  per-token symmetric activation quantization at an arbitrary bit width
  (W8A8 without smoothing, QoQ-style W4A8, naive W4A4).
* :class:`SmoothQuantLinear` — W8A8 with the SmoothQuant equivalent
  transformation folded into the activation path and weights.
"""

from __future__ import annotations

import numpy as np

from repro.core.fmpq import block_gemm, weight_operand
from repro.core.intquant import (
    QuantSpec,
    quantize_symmetric,
    symmetric_scale,
)
from repro.core.weightquant import QuantizedWeight

__all__ = ["WeightOnlyLinear", "DynamicActLinear", "SmoothQuantLinear"]


class WeightOnlyLinear:
    """W4A16: float activations, quantized weights dequantized on load."""

    def __init__(
        self,
        qweight: QuantizedWeight,
        bias: np.ndarray | None = None,
        name: str = "",
    ):
        self.qweight = qweight
        self.bias = bias
        self.name = name
        self._w = qweight.dequantize()

    @property
    def in_features(self) -> int:
        return self.qweight.in_features

    @property
    def out_features(self) -> int:
        return self.qweight.out_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float32) @ self._w.T
        if self.bias is not None:
            out = out + self.bias
        return out

    __call__ = forward

    def memory_bytes(self) -> int:
        return self.qweight.memory_bytes()


class DynamicActLinear:
    """Integer GEMM with per-token dynamic activation quantization.

    Activations are quantized symmetrically per token at ``act_spec``;
    weights are group-quantized integers.  The GEMM runs in integer
    arithmetic per weight group, mirroring a WxAy tensor-core kernel, on
    the same stacked stage as FMPQ (:func:`repro.core.fmpq.block_gemm`,
    every group sharing the token's one activation scale).
    """

    def __init__(
        self,
        qweight: QuantizedWeight,
        act_spec: QuantSpec,
        bias: np.ndarray | None = None,
        name: str = "",
    ):
        self.qweight = qweight
        self.act_spec = act_spec
        self.bias = bias
        self.name = name
        # weight_operand(qweight), built on the first forward.
        self._operand: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.qweight.in_features

    @property
    def out_features(self) -> int:
        return self.qweight.out_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        lead = x.shape[:-1]
        flat = x.reshape(-1, self.in_features)
        a_scale = symmetric_scale(flat, self.act_spec, axis=-1)
        a_codes = quantize_symmetric(flat, a_scale, self.act_spec)
        if self._operand is None:
            self._operand = weight_operand(self.qweight)
        out = block_gemm(
            a_codes,
            np.broadcast_to(a_scale, (flat.shape[0], self.qweight.num_groups)),
            self._operand,
            self.qweight.scales.T,
        )
        out = out.reshape(*lead, self.out_features)
        if self.bias is not None:
            out = out + self.bias
        return out

    __call__ = forward

    def memory_bytes(self) -> int:
        return self.qweight.memory_bytes()


class SmoothQuantLinear(DynamicActLinear):
    """W8A8 with a per-channel smoothing divisor on the activation path.

    The smoothing factors migrate quantization difficulty from activations
    to weights (already folded into ``qweight`` by the caller).
    """

    def __init__(
        self,
        qweight: QuantizedWeight,
        act_spec: QuantSpec,
        smooth: np.ndarray,
        bias: np.ndarray | None = None,
        name: str = "",
    ):
        super().__init__(qweight, act_spec, bias=bias, name=name)
        self.smooth = np.asarray(smooth, dtype=np.float32)
        if self.smooth.shape != (self.in_features,):
            raise ValueError("smooth must have shape (in_features,)")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return super().forward(np.asarray(x, dtype=np.float32) / self.smooth)

    __call__ = forward
