"""The per-block W4Ax GEMM loop: the bit-exactness oracle for the stacked GEMM.

One Python iteration per channel block: an int64 integer product, the
accumulator converted to float32 and scaled as ``(acc * s_a) * s_w``, and the
blocks added in block order into a float32 zero matrix.  The stacked stage
:func:`repro.core.fmpq.block_gemm` — under every FMPQ linear
(``mixed_precision_matmul``), :class:`repro.kernels.functional.PackedW4AxGEMM`
and the baselines' ``DynamicActLinear`` — must equal this bit for bit.

Importable from any test module: ``tests/`` is on ``sys.path`` through the
root ``conftest.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.blockwise import QuantizedActivation
from repro.core.weightquant import QuantizedWeight


def per_block_gemm(
    codes: np.ndarray, act_scales: np.ndarray, qweight: QuantizedWeight
) -> np.ndarray:
    """Integer activation codes ``(tokens, channels)`` with per-(token,
    block) scales ``(tokens, blocks)`` times ``qweight``, one block at a
    time."""
    g = qweight.group_size
    out = np.zeros((codes.shape[0], qweight.out_features), dtype=np.float32)
    for b in range(qweight.num_groups):
        a_codes = codes[:, b * g : (b + 1) * g].astype(np.int64)
        w_codes = qweight.group_codes(b).astype(np.int64)
        acc = a_codes @ w_codes.T  # int64 accumulator
        out += (
            acc.astype(np.float32)
            * act_scales[:, b][:, None]
            * qweight.group_scales(b)[None, :]
        )
    return out


def per_block_matmul(
    qact: QuantizedActivation,
    qweight: QuantizedWeight,
    operand: np.ndarray | None = None,
) -> np.ndarray:
    """``mixed_precision_matmul`` one block at a time (``operand`` is
    accepted for signature compatibility and ignored)."""
    return per_block_gemm(qact.codes, qact.scales, qweight)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, float32 dtypes and bit patterns (signed zeros too)."""
    return (
        a.dtype == b.dtype == np.float32
        and a.shape == b.shape
        and np.array_equal(a.view(np.uint32), b.view(np.uint32))
    )
