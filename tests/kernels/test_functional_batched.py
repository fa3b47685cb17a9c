"""Bit-exactness tests for the stacked packed W4Ax GEMM.

``PackedW4AxGEMM.run`` converts the packed weights (fast INT4->INT8
conversion for W4A8 blocks, nibble unpack for W4A4 blocks) and runs every
block in one stacked GEMM; these tests pin it bitwise to the
one-block-at-a-time loop oracle (``tests/gemm_oracle.py``) across random
mixed-precision plans, and check the stacked (leading-axis) packing
primitives it is built on.
"""

import numpy as np
from gemm_oracle import per_block_matmul, same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.blockwise import (
    BlockConfig,
    BlockPrecisionPlan,
    quantize_activation_blocks,
)
from repro.core.intquant import pack_int4, unpack_int4
from repro.core.weightquant import quantize_weight
from repro.kernels.conversion import fast_int4to8, pack_int4_words_swapped
from repro.kernels.functional import PackedW4AxGEMM


def _setup(tokens, nblocks, block, out_f, high_prob, seed):
    rng = np.random.default_rng(seed)
    in_f = nblocks * block
    w = rng.normal(size=(out_f, in_f)).astype(np.float32) * 0.2
    x = rng.normal(size=(tokens, in_f)).astype(np.float32)
    qw = quantize_weight(w, group_size=block)
    plan = BlockPrecisionPlan(
        config=BlockConfig(block_size=block),
        is_high=rng.random(nblocks) < high_prob,
    )
    qact = quantize_activation_blocks(x, plan)
    return qw, qact, plan


class TestBatchedBitExactness:
    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_per_block(self, tokens, nblocks, high_prob, seed):
        """run() is bit-identical to the per-block loop for any plan mix."""
        qw, qact, _ = _setup(tokens, nblocks, 16, 12, high_prob, seed)
        got = PackedW4AxGEMM(qw).run(qact)
        assert np.array_equal(got, per_block_matmul(qact, qw))
        assert same_bits(got, per_block_matmul(qact, qw))

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_prepared_plan_equals_on_the_fly(self, tokens, nblocks, seed):
        """Load-time plan preparation changes nothing numerically."""
        qw, qact, plan = _setup(tokens, nblocks, 16, 10, 0.5, seed)
        prepared = PackedW4AxGEMM(qw, plan=plan)
        assert prepared._prepared_plan is plan
        assert np.array_equal(
            prepared.run(qact), PackedW4AxGEMM(qw).run(qact)
        )

    def test_all_low_and_all_high_extremes(self):
        for high_prob in (0.0, 1.0):
            qw, qact, _ = _setup(4, 5, 16, 8, high_prob, seed=11)
            assert same_bits(
                PackedW4AxGEMM(qw).run(qact), per_block_matmul(qact, qw)
            )

    def test_batched_blocks_counter(self):
        registry, _ = obs.enable()
        try:
            qw, qact, plan = _setup(2, 6, 16, 8, 0.5, seed=12)
            PackedW4AxGEMM(qw).run(qact)
            fam = registry.get("kernel.gemm_blocks_batched_total")
            total = sum(child.value for _, child in fam.series())
            assert total == plan.num_blocks
        finally:
            obs.disable()


class TestStackedPacking:
    """The packing primitives pass leading (stack) axes straight through."""

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stacked_nibble_roundtrip(self, groups, rows, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-8, 8, size=(groups, rows, 8)).astype(np.int8)
        packed = pack_int4(codes)
        assert packed.shape == (groups, rows, 4)
        assert np.array_equal(unpack_int4(packed), codes)
        # Stacked packing == packing each group independently.
        for g in range(groups):
            assert np.array_equal(packed[g], pack_int4(codes[g]))

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stacked_fast_conversion(self, groups, rows, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-8, 8, size=(groups, rows, 8)).astype(np.int8)
        words = pack_int4_words_swapped(codes)
        assert words.shape == (groups, rows, 2)
        converted = fast_int4to8(words)
        assert np.array_equal(converted, codes.astype(np.int16) * 16)
        for g in range(groups):
            assert np.array_equal(
                converted[g], fast_int4to8(pack_int4_words_swapped(codes[g]))
            )
