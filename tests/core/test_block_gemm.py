"""Bit-exactness of the stacked W4Ax GEMM against the per-block loop.

``mixed_precision_matmul`` runs every channel block in one stacked integer
matmul, then scales and adds the blocks in block order in float32.  These
tests pin it, bit for bit, to the one-block-at-a-time loop in
``tests/gemm_oracle.py`` — directly, through token chunking, through the
packed-storage GEMM, and through a whole quantized model's logits.
"""

import tracemalloc

import numpy as np
import pytest
from gemm_oracle import per_block_matmul, same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fmpq as fmpq
from repro.api import quantize_model
from repro.core.blockwise import (
    BlockConfig,
    BlockPrecisionPlan,
    QuantizedActivation,
)
from repro.core.fmpq import QuantizedLinear, mixed_precision_matmul
from repro.core.intquant import INT4, INT8
from repro.core.permutation import identity_permutation
from repro.core.weightquant import QuantizedWeight
from repro.data.corpus import SyntheticCorpus
from repro.kernels.functional import PackedW4AxGEMM
from repro.model.config import tiny_config
from repro.model.outlier_injection import inject_outliers
from repro.model.transformer import Transformer, init_params

PLANS = ("random", "high", "low")


def _log_uniform(rng, size, lo=1e-4, hi=1e3):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size)).astype(
        np.float32
    )


def random_gemm(tokens, nblocks, block, out_f, plan_kind, wspec, seed):
    """Random codes within each block's integer range and log-uniform
    scales over 1e-4..1e3."""
    rng = np.random.default_rng(seed)
    if plan_kind == "random":
        is_high = rng.random(nblocks) < 0.5
    else:
        is_high = np.full(nblocks, plan_kind == "high")
    plan = BlockPrecisionPlan(config=BlockConfig(block_size=block),
                              is_high=is_high)
    lo = np.repeat(np.where(is_high, INT8.qmin, INT4.qmin), block)
    hi = np.repeat(np.where(is_high, INT8.qmax, INT4.qmax), block)
    codes = rng.integers(lo, hi + 1, size=(tokens, nblocks * block))
    qact = QuantizedActivation(
        codes=codes.astype(np.int8),
        scales=_log_uniform(rng, (tokens, nblocks)),
        plan=plan,
    )
    qweight = QuantizedWeight(
        codes=rng.integers(wspec.qmin, wspec.qmax + 1,
                           size=(out_f, nblocks * block)).astype(np.int8),
        scales=_log_uniform(rng, (out_f, nblocks)),
        group_size=block,
        spec=wspec,
    )
    return qact, qweight


def gemm_cases(weight_specs=(INT4, INT8)):
    """Arguments of :func:`random_gemm`."""
    return st.tuples(
        st.one_of(st.integers(1, 64), st.just(300)),  # tokens
        st.integers(1, 32),  # blocks
        st.sampled_from([16, 32, 128]),  # block size
        st.integers(1, 48),  # out features
        st.sampled_from(PLANS),
        st.sampled_from(weight_specs),
        st.integers(0, 2**32 - 1),
    )


class TestStackedEqualsPerBlock:
    @given(gemm_cases())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical(self, case):
        qact, qweight = random_gemm(*case)
        got = mixed_precision_matmul(qact, qweight)
        ref = per_block_matmul(qact, qweight)
        assert np.array_equal(got, ref)
        assert same_bits(got, ref)

    @given(gemm_cases(weight_specs=(INT4,)))
    @settings(max_examples=40, deadline=None)
    def test_packed_bit_identical(self, case):
        """The packed-storage GEMM (fast conversion for W4A8 blocks) feeds
        the same stage: equal to the loop bit for bit."""
        qact, qweight = random_gemm(*case)
        ref = per_block_matmul(qact, qweight)
        assert same_bits(PackedW4AxGEMM(qweight).run(qact), ref)
        prepared = PackedW4AxGEMM(qweight, plan=qact.plan)
        assert same_bits(prepared.run(qact), ref)

    @pytest.mark.parametrize("stack", [1, 64, 1000, 4096])
    def test_token_chunking_changes_nothing(self, monkeypatch, stack):
        qact, qweight = random_gemm(300, 5, 32, 24, "random", INT4, seed=3)
        monkeypatch.setattr(fmpq, "BLOCK_GEMM_STACK_ELEMENTS", stack)
        assert same_bits(
            mixed_precision_matmul(qact, qweight),
            per_block_matmul(qact, qweight),
        )

    @pytest.mark.parametrize("nblocks", [1, 8, 9, 32])
    def test_single_output_element(self, nblocks):
        """One token, one output: numpy would sum a lone contiguous block
        axis pairwise; the stage must still add in block order."""
        for seed in range(20):
            qact, qweight = random_gemm(1, nblocks, 16, 1, "random", INT4, seed)
            assert same_bits(
                mixed_precision_matmul(qact, qweight),
                per_block_matmul(qact, qweight),
            )

    def test_zero_tokens(self):
        qact, qweight = random_gemm(0, 3, 16, 5, "random", INT4, seed=0)
        out = mixed_precision_matmul(qact, qweight)
        assert out.shape == (0, 5) and out.dtype == np.float32

    def test_signed_zero_matches(self):
        """Contributions that underflow to -0.0 sum to +0.0, as they do
        when added to the loop's zero start."""
        qact, qweight = random_gemm(2, 4, 16, 3, "random", INT4, seed=1)
        qact.codes[:] = -1
        qact.scales[:] = 1e-30
        qweight.codes[:] = 1
        qweight.scales[:] = 1e-30
        got = mixed_precision_matmul(qact, qweight)
        assert same_bits(got, per_block_matmul(qact, qweight))
        assert not np.signbit(got).any()


class TestMemoryBound:
    def test_long_prefill_peak_is_bounded(self):
        """A long input runs in token chunks: the transient memory is a few
        chunk stacks, not a (blocks, tokens, out) tensor."""
        tokens, nblocks, block, out_f = 2048, 16, 16, 256
        qact, qweight = random_gemm(tokens, nblocks, block, out_f, "random",
                                    INT4, seed=5)
        operand = fmpq.weight_operand(qweight)
        tracemalloc.start()
        try:
            out = mixed_precision_matmul(qact, qweight, operand)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unchunked = nblocks * tokens * out_f * (8 + 4)
        # float64 codes + float64 accumulator + float32 contributions + sum.
        chunk = fmpq.BLOCK_GEMM_STACK_ELEMENTS * (8 + 8 + 4 + 4)
        assert peak <= out.nbytes + chunk
        assert peak < unchunked / 4


class TestQuantizedLinearOperand:
    def _layer(self):
        qact, qweight = random_gemm(4, 3, 16, 8, "random", INT4, seed=9)
        return QuantizedLinear(
            qweight=qweight,
            permutation=identity_permutation(qweight.in_features),
            plan=qact.plan,
        )

    def test_operand_built_lazily_and_kept(self):
        layer = self._layer()
        assert layer._operand is None
        x = np.random.default_rng(0).normal(size=(5, layer.in_features))
        first = layer.forward(x)
        operand = layer._operand
        assert operand is not None
        assert same_bits(layer.forward(x), first)
        assert layer._operand is operand
        assert "_operand" not in repr(layer)


@pytest.fixture(scope="module")
def tiny_quantized():
    cfg = tiny_config(name="block-gemm", vocab_size=64, d_model=64,
                      n_layers=2, n_heads=4, d_ffn=128, max_seq_len=64)
    model = Transformer(cfg, params=init_params(cfg, 0))
    inject_outliers(model, seed=0)
    return quantize_model(
        model, SyntheticCorpus(vocab_size=64, seed=0), group_size=16,
        calib_sequences=2, calib_seq_len=32,
    )


def _prefill_and_decode(qm, prompt, steps):
    cache = qm.new_cache()
    logits = [qm.model.forward(prompt, cache)]
    for _ in range(steps):
        token = int(np.argmax(logits[-1][-1]))
        logits.append(qm.model.forward(np.array([token]), cache))
    return logits


def test_model_logits_bit_identical_to_per_block_loop(tiny_quantized,
                                                      monkeypatch):
    """Prefill and decode logits of an FMPQ-quantized model are the same
    bits with the per-block loop patched in for every quantized linear."""
    qm = tiny_quantized
    linears = qm.model.named_linears().values()
    assert any(isinstance(layer, QuantizedLinear) for layer in linears)
    prompt = np.random.default_rng(4).integers(0, 64, size=24)
    stacked = _prefill_and_decode(qm, prompt, steps=6)
    monkeypatch.setattr(fmpq, "mixed_precision_matmul", per_block_matmul)
    looped = _prefill_and_decode(qm, prompt, steps=6)
    assert len(stacked) == len(looped)
    for a, b in zip(stacked, looped):
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype and np.array_equal(
            a.view(np.uint8), b.view(np.uint8)
        )
