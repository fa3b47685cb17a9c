"""Tests for baseline quantizers: wrappers, GPTQ, AWQ, SmoothQuant, QoQ."""

import numpy as np
import pytest
from gemm_oracle import per_block_gemm, same_bits

from repro.baselines.awq import awq_quantize_weight, awq_search_scale
from repro.baselines.gptq import gptq_quantize_weight
from repro.baselines.omniquant import (
    omniquant_w4a16_linear,
    omniquant_w4a4_linear,
)
from repro.baselines.qoq import qoq_kv_config, qoq_linear
from repro.baselines.rtn import rtn_quantize_weight, rtn_w4a16_linear
from repro.baselines.smoothquant import (
    compute_smoothing_factor,
    smoothquant_linear,
)
from repro.baselines.wrappers import (
    DynamicActLinear,
    SmoothQuantLinear,
    WeightOnlyLinear,
)
from repro.core.intquant import INT4, INT8, quantize_symmetric, symmetric_scale
from repro.core.weightquant import quantize_weight


@pytest.fixture()
def layer_data():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(24, 32)).astype(np.float32) * 0.2
    x = rng.normal(size=(200, 32)).astype(np.float32)
    x[:, 5] *= 30.0  # one activation outlier channel
    return w, x


class TestWrappers:
    def test_weight_only_close_to_float(self, layer_data):
        w, x = layer_data
        lin = WeightOnlyLinear(quantize_weight(w, group_size=8))
        ref = x @ w.T
        rel = np.linalg.norm(lin(x) - ref) / np.linalg.norm(ref)
        assert rel < 0.06

    def test_weight_only_bias(self, layer_data):
        w, _ = layer_data
        bias = np.ones(24, dtype=np.float32)
        lin = WeightOnlyLinear(quantize_weight(w, group_size=8), bias=bias)
        out = lin(np.zeros((1, 32), dtype=np.float32))
        np.testing.assert_allclose(out[0], bias, atol=1e-6)

    def test_dynamic_act_int8_accurate(self, layer_data):
        w, x = layer_data
        lin = DynamicActLinear(quantize_weight(w, group_size=8), act_spec=INT8)
        ref = x @ w.T
        rel = np.linalg.norm(lin(x) - ref) / np.linalg.norm(ref)
        assert rel < 0.1

    def test_dynamic_act_int4_degrades_on_outliers(self, layer_data):
        w, x = layer_data
        q8 = DynamicActLinear(quantize_weight(w, group_size=8), act_spec=INT8)
        q4 = DynamicActLinear(quantize_weight(w, group_size=8), act_spec=INT4)
        ref = x @ w.T
        err8 = np.linalg.norm(q8(x) - ref)
        err4 = np.linalg.norm(q4(x) - ref)
        # Both share the INT4 weight error; activation INT4 must still
        # clearly dominate on outlier-bearing inputs.
        assert err4 > 2 * err8

    @pytest.mark.parametrize("act_spec", [INT4, INT8])
    @pytest.mark.parametrize("weight_spec", [INT4, INT8])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_dynamic_act_bit_identical_to_per_group_loop(
        self, layer_data, act_spec, weight_spec, smooth
    ):
        """The stacked GEMM stage equals the one-group-at-a-time loop with
        the token's activation scale shared by every group."""
        w, x = layer_data
        qw = quantize_weight(w, group_size=8, spec=weight_spec)
        bias = np.linspace(-1, 1, 24).astype(np.float32)
        if smooth:
            factor = np.linspace(0.5, 2.0, 32).astype(np.float32)
            lin = SmoothQuantLinear(qw, act_spec, factor, bias=bias)
            xs = x / factor
        else:
            lin = DynamicActLinear(qw, act_spec=act_spec, bias=bias)
            xs = x
        a_scale = symmetric_scale(xs, act_spec, axis=-1)
        assert a_scale.dtype == np.float32
        codes = quantize_symmetric(xs, a_scale, act_spec)
        ref = per_block_gemm(
            codes, np.broadcast_to(a_scale, (len(x), qw.num_groups)), qw
        ) + bias
        assert same_bits(lin(x), ref)
        assert same_bits(lin(x), ref)  # the kept operand changes nothing

    def test_dynamic_act_preserves_leading_shape(self, layer_data):
        w, _ = layer_data
        lin = DynamicActLinear(quantize_weight(w, group_size=8), act_spec=INT8)
        out = lin(np.zeros((2, 5, 32), dtype=np.float32))
        assert out.shape == (2, 5, 24)


class TestSmoothQuant:
    def test_smoothing_factor_shape_and_positive(self, layer_data):
        w, x = layer_data
        s = compute_smoothing_factor(w, x)
        assert s.shape == (32,)
        assert (s > 0).all()

    def test_alpha_validation(self, layer_data):
        w, x = layer_data
        with pytest.raises(ValueError):
            compute_smoothing_factor(w, x, alpha=1.5)

    def test_outlier_channel_gets_largest_factor(self, layer_data):
        w, x = layer_data
        s = compute_smoothing_factor(w, x)
        assert np.argmax(s) == 5

    def test_smoothquant_beats_naive_w8a8_on_outliers(self, layer_data):
        w, x = layer_data
        x = x.copy()
        x[:, 5] *= 10.0  # make the outlier extreme
        ref = x @ w.T
        naive = DynamicActLinear(
            quantize_weight(w, group_size=8, spec=INT8), act_spec=INT8
        )
        sq = smoothquant_linear(w, x, group_size=8)
        assert np.linalg.norm(sq(x) - ref) < np.linalg.norm(naive(x) - ref)

    def test_smooth_shape_validated(self, layer_data):
        w, x = layer_data
        from repro.baselines.wrappers import SmoothQuantLinear

        with pytest.raises(ValueError):
            SmoothQuantLinear(
                quantize_weight(w, group_size=8, spec=INT8),
                act_spec=INT8,
                smooth=np.ones(5),
            )


class TestGPTQ:
    def test_beats_rtn_on_correlated_inputs(self, layer_data):
        w, _ = layer_data
        rng = np.random.default_rng(3)
        # Correlated calibration inputs: GPTQ's error compensation shines.
        basis = rng.normal(size=(8, 32))
        x = rng.normal(size=(400, 8)) @ basis
        ref = x @ w.T
        q_rtn = rtn_quantize_weight(w, group_size=8)
        q_gptq = gptq_quantize_weight(w, x, group_size=8)
        err_rtn = np.linalg.norm(x @ q_rtn.dequantize().T - ref)
        err_gptq = np.linalg.norm(x @ q_gptq.dequantize().T - ref)
        assert err_gptq < err_rtn

    def test_rejects_empty_calibration(self, layer_data):
        w, _ = layer_data
        with pytest.raises(ValueError):
            gptq_quantize_weight(w, np.zeros((0, 32)), group_size=8)

    def test_rejects_bad_group(self, layer_data):
        w, x = layer_data
        with pytest.raises(ValueError):
            gptq_quantize_weight(w, x, group_size=5)

    def test_handles_dead_channels(self, layer_data):
        w, x = layer_data
        x = x.copy()
        x[:, 7] = 0.0  # channel never activated
        qw = gptq_quantize_weight(w, x, group_size=8)
        assert np.isfinite(qw.dequantize()).all()

    def test_codes_in_range(self, layer_data):
        w, x = layer_data
        qw = gptq_quantize_weight(w, x, group_size=8)
        assert qw.codes.min() >= -8
        assert qw.codes.max() <= 7


class TestAWQ:
    def test_scale_search_returns_valid(self, layer_data):
        w, x = layer_data
        s, alpha = awq_search_scale(w, x, group_size=8)
        assert s.shape == (32,)
        assert (s > 0).all()
        assert 0.0 <= alpha <= 1.0

    def test_never_worse_than_alpha_zero(self, layer_data):
        w, x = layer_data
        ref = x @ w.T
        qw_awq = awq_quantize_weight(w, x, group_size=8)
        qw_rtn = rtn_quantize_weight(w, group_size=8)
        err_awq = np.linalg.norm(x @ qw_awq.dequantize().T - ref)
        err_rtn = np.linalg.norm(x @ qw_rtn.dequantize().T - ref)
        # alpha=0 reduces AWQ to RTN, so search can only improve output MSE.
        assert err_awq <= err_rtn * 1.001

    def test_rejects_empty_calibration(self, layer_data):
        w, _ = layer_data
        with pytest.raises(ValueError):
            awq_search_scale(w, np.zeros((0, 32)), group_size=8)


class TestOmniquantAndQoQ:
    def test_w4a16_linear_accurate(self, layer_data):
        w, x = layer_data
        lin = omniquant_w4a16_linear(w, group_size=8)
        ref = x @ w.T
        assert np.linalg.norm(lin(x) - ref) / np.linalg.norm(ref) < 0.05

    def test_w4a4_worse_than_w4a16_on_outliers(self, layer_data):
        w, x = layer_data
        ref = x @ w.T
        e16 = np.linalg.norm(omniquant_w4a16_linear(w, group_size=8)(x) - ref)
        e4 = np.linalg.norm(omniquant_w4a4_linear(w, group_size=8)(x) - ref)
        assert e4 > 2 * e16

    def test_qoq_linear_is_w4a8(self, layer_data):
        w, x = layer_data
        lin = qoq_linear(w, group_size=8)
        assert lin.act_spec == INT8
        assert lin.qweight.spec == INT4
        ref = x @ w.T
        assert np.linalg.norm(lin(x) - ref) / np.linalg.norm(ref) < 0.1

    def test_qoq_kv_config(self):
        cfg = qoq_kv_config()
        assert cfg.spec.bits == 4
        assert cfg.granularity == "per_token"
