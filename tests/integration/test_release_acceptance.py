"""Release acceptance: the full COMET pipeline end to end.

These tests chain every subsystem the way a downstream user would:
train -> inject outliers -> calibrate (FMPQ) -> checkpoint -> reload ->
evaluate accuracy -> time the kernels -> serve — asserting cross-module
consistency at each seam.
"""

import numpy as np
import pytest

from repro.api import build_engine, kernel_latency, quantize_model
from repro.core.serialization import load_quantized_model, save_quantized_model
from repro.data.perplexity import evaluate_perplexity
from repro.data.tasks import build_task_suite, evaluate_suite
from repro.kernels.functional import PackedW4AxGEMM
from repro.model.generation import greedy_generate
from repro.model.transformer import Transformer
from repro.serving.request import make_batch_requests


def clone(entry):
    params = {k: v.copy() for k, v in entry.model.get_params().items()}
    return Transformer(entry.model.config, params=params)


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def artifacts(self, zoo_llama1, tmp_path_factory):
        qm = quantize_model(clone(zoo_llama1), zoo_llama1.corpus)
        path = tmp_path_factory.mktemp("ckpt") / "fmpq.npz"
        save_quantized_model(path, qm.model, qm.report.kv_config)
        loaded, kv = load_quantized_model(path)
        return dict(entry=zoo_llama1, qm=qm, loaded=loaded, kv=kv)

    def test_accuracy_preserved_through_checkpoint(self, artifacts):
        entry = artifacts["entry"]
        ppl_fp = evaluate_perplexity(entry.model, entry.corpus, num_sequences=6)
        ppl_loaded = evaluate_perplexity(
            artifacts["loaded"], entry.corpus, num_sequences=6,
            kv_config=artifacts["kv"],
        )
        assert ppl_loaded < ppl_fp * 1.10

    def test_zero_shot_preserved(self, artifacts):
        entry = artifacts["entry"]
        suite = build_task_suite(entry.corpus, n_items=15, seed=8)
        fp = evaluate_suite(entry.model, suite)["avg"]
        loaded = evaluate_suite(
            artifacts["loaded"], suite, kv_config=artifacts["kv"]
        )["avg"]
        assert loaded > fp - 0.12

    def test_generation_consistent(self, artifacts):
        entry = artifacts["entry"]
        prompt = entry.corpus.sample_sequence(10, seed=42)
        a = greedy_generate(
            artifacts["qm"].model, prompt, 8,
            kv_config=artifacts["qm"].report.kv_config,
        )
        b = greedy_generate(artifacts["loaded"], prompt, 8,
                            kv_config=artifacts["kv"])
        assert (a == b).mean() > 0.6

    def test_packed_gemm_agrees_with_layer(self, artifacts):
        """The packed-storage execution path reproduces every quantized
        layer's forward bit-for-bit."""
        qm = artifacts["qm"]
        entry = artifacts["entry"]
        x = entry.corpus.sample_sequence(16, seed=77)
        h = entry.model.embed[x]  # a plausible activation
        layer = qm.model.named_linears()["layers.0.attn.wq"]
        qact = layer.quantize_input(h)
        packed = PackedW4AxGEMM(layer.qweight)
        ref = layer.forward(h)
        got = packed.run(qact)
        assert np.array_equal(got, ref)

    def test_quantized_model_smaller(self, artifacts):
        qm = artifacts["qm"]
        entry = artifacts["entry"]
        q_bytes = sum(
            l.memory_bytes() for l in qm.model.named_linears().values()
        )
        fp_bytes = sum(
            l.weight.size * 2
            for l in entry.model.named_linears().values()
        )
        assert q_bytes < 0.5 * fp_bytes


class TestSystemConsistency:
    def test_kernel_and_engine_agree(self):
        """The engine's per-step cost is built from the same kernel model
        the standalone latency API exposes."""
        engine = build_engine("llama-3-8b", "comet", max_batch=8)
        direct = sum(
            kernel_latency("comet-w4ax", 8, n, k).seconds
            for n, k in engine.model.linear_shapes().values()
        ) * engine.model.n_layers
        assert engine.linear_stack_latency(8) == pytest.approx(direct, rel=1e-9)

    def test_serving_conserves_tokens(self):
        engine = build_engine("llama-3-8b", "comet", max_batch=8)
        reqs = make_batch_requests(8, 64, 16)
        report = engine.run(reqs)
        assert report.output_tokens == sum(r.generated for r in reqs)
        assert report.sim_seconds == pytest.approx(
            report.prefill_seconds + report.decode_seconds
        )

    def test_nan_inputs_rejected_loudly(self, zoo_llama1):
        """Quantizing garbage raises instead of silently corrupting."""
        from repro.core.weightquant import quantize_weight

        bad = np.full((8, 16), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            quantize_weight(bad, group_size=8)

    def test_nan_activation_rejected(self):
        from repro.core.intquant import INT8, asymmetric_scale_zero

        with pytest.raises(ValueError):
            asymmetric_scale_zero(np.array([1.0, np.inf]), INT8)
