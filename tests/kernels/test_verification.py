"""Tests for the kernel self-verification harness."""

import numpy as np
import pytest

import repro.kernels.verification as verification
from repro.kernels.verification import VerificationReport, verify_kernels


class TestVerifyKernels:
    def test_clean_installation_passes(self):
        report = verify_kernels(cases=8, seed=3)
        assert report.ok, report.summary()
        assert report.numerics_cases == 8
        assert report.timing_cases == 3
        assert "OK" in report.summary()

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_kernels(cases=0)

    def test_deterministic(self):
        a = verify_kernels(cases=4, seed=7)
        b = verify_kernels(cases=4, seed=7)
        assert a.ok == b.ok
        assert a.numerics_cases == b.numerics_cases

    def test_failure_reporting_format(self):
        report = VerificationReport(failures=["numerics x: packed != reference"])
        assert not report.ok
        assert "FAILED" in report.summary()
        assert "packed != reference" in report.summary()

    def test_one_ulp_divergence_fails(self, monkeypatch):
        """Packed and reference numerics must agree bit for bit."""
        run = verification.PackedW4AxGEMM.run

        def off_by_one_ulp(self, qact):
            out = run(self, qact)
            out[0, 0] = np.nextafter(out[0, 0], np.float32(np.inf))
            return out

        monkeypatch.setattr(verification.PackedW4AxGEMM, "run", off_by_one_ulp)
        report = verify_kernels(cases=3, seed=0)
        assert not report.ok
        assert all("packed != reference" in f for f in report.failures)
        assert len(report.failures) == 3
