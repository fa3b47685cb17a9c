"""Tests for the packed-storage functional W4Ax GEMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blockwise import (
    BlockConfig,
    BlockPrecisionPlan,
    quantize_activation_blocks,
)
from repro.core.fmpq import mixed_precision_matmul
from repro.core.intquant import INT8
from repro.core.weightquant import quantize_weight
from repro.kernels.functional import PackedW4AxGEMM


def setup_gemm(tokens=8, out_f=24, in_f=64, block=16, is_high=None, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(out_f, in_f)).astype(np.float32) * 0.2
    x = rng.normal(size=(tokens, in_f)).astype(np.float32)
    qw = quantize_weight(w, group_size=block)
    if is_high is None:
        is_high = np.arange(in_f // block) % 2 == 0
    plan = BlockPrecisionPlan(
        config=BlockConfig(block_size=block), is_high=np.asarray(is_high)
    )
    qact = quantize_activation_blocks(x, plan)
    return qw, qact, w, x


class TestPackedW4AxGEMM:
    def test_matches_reference_numerics(self):
        """The packed pipeline equals the reference GEMM bit for bit."""
        qw, qact, _, _ = setup_gemm()
        packed = PackedW4AxGEMM(qw)
        ref = mixed_precision_matmul(qact, qw)
        assert np.array_equal(packed.run(qact), ref)

    def test_all_int8_blocks(self):
        qw, qact, _, _ = setup_gemm(is_high=np.ones(4, dtype=bool))
        assert np.array_equal(
            PackedW4AxGEMM(qw).run(qact),
            mixed_precision_matmul(qact, qw),
        )

    def test_all_int4_blocks(self):
        qw, qact, _, _ = setup_gemm(is_high=np.zeros(4, dtype=bool))
        assert np.array_equal(
            PackedW4AxGEMM(qw).run(qact),
            mixed_precision_matmul(qact, qw),
        )

    def test_close_to_float_gemm(self):
        qw, qact, w, x = setup_gemm()
        out = PackedW4AxGEMM(qw).run(qact)
        ref = x @ w.T
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 0.2

    def test_rejects_int8_weights(self):
        w = np.random.default_rng(0).normal(size=(8, 16)).astype(np.float32)
        qw8 = quantize_weight(w, group_size=8, spec=INT8)
        with pytest.raises(ValueError):
            PackedW4AxGEMM(qw8)

    def test_rejects_block_mismatch(self):
        qw, _, _, _ = setup_gemm(block=16)
        _, qact32, _, _ = setup_gemm(block=32)
        with pytest.raises(ValueError):
            PackedW4AxGEMM(qw).run(qact32)

    def test_rejects_channel_mismatch(self):
        qw, _, _, _ = setup_gemm(in_f=64)
        _, qact_small, _, _ = setup_gemm(in_f=32)
        with pytest.raises(ValueError):
            PackedW4AxGEMM(qw).run(qact_small)

    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, tokens, nblocks, seed):
        """Packed execution equals the reference bit for bit for any block
        mix."""
        rng = np.random.default_rng(seed)
        block = 16
        in_f = nblocks * block
        qw, qact, _, _ = setup_gemm(
            tokens=tokens,
            out_f=8,
            in_f=in_f,
            block=block,
            is_high=rng.random(nblocks) < 0.5,
            seed=seed,
        )
        assert np.array_equal(
            PackedW4AxGEMM(qw).run(qact),
            mixed_precision_matmul(qact, qw),
        )
