"""Tests for the faulted bus-trace audits (repro.obs.audit extensions).

The resilience claim of :mod:`repro.faults`: injecting faults — and the
retries / retransmissions they provoke — must not make a secure design's
adversary-visible trace address-distinguishable.  Faults are scheduled
positionally, so the same plan perturbs two different address streams at
exactly the same observable points.
"""

import pytest

from repro.config import DesignPoint
from repro.obs.audit import (BUS_STALLS, audit_address_streams,
                             audit_faulted_protocol, audit_timing_design,
                             run_full_audit)


@pytest.fixture(scope="module")
def streams():
    return audit_address_streams(24, span=1 << 10)


class TestFaultedProtocolAudit:
    @pytest.mark.parametrize("design,levels", [("independent", 6),
                                               ("split", 6),
                                               ("indep-split", 7)])
    def test_secure_designs_stay_indistinguishable(self, streams, design,
                                                   levels):
        result = audit_faulted_protocol(design, *streams, levels=levels)
        assert result.passed, result.describe()
        assert result.name == f"faulted:{design}"
        assert result.length_a == result.length_b > 0

    def test_fault_free_and_faulted_audits_both_pass(self, streams):
        clean = audit_faulted_protocol("independent", *streams,
                                       bit_flips=0, replays=0,
                                       link_drops=0, link_duplicates=0,
                                       link_delays=0)
        assert clean.passed, clean.describe()

    def test_link_faults_alone_preserve_shapes(self, streams):
        result = audit_faulted_protocol("independent", *streams,
                                        bit_flips=0, replays=0,
                                        link_drops=2, link_duplicates=2,
                                        link_delays=2)
        assert result.passed, result.describe()


class TestStalledTimingAudit:
    @pytest.mark.parametrize("design", [DesignPoint.INDEP_2,
                                        DesignPoint.SPLIT_2])
    def test_identical_stall_schedules_cancel_out(self, design):
        result = audit_timing_design(design, misses=6, stalls=BUS_STALLS)
        assert result.passed, result.describe()
        assert result.name.startswith("timing+stalls:")


class TestFullAuditIntegration:
    def test_with_faults_appends_the_faulted_results(self):
        results = run_full_audit(misses=6, accesses=24, with_faults=True,
                                 include_negative_control=False)
        names = [result.name for result in results]
        for expected in ("faulted:independent", "faulted:split",
                         "faulted:indep-split", "timing+stalls:indep-2",
                         "timing+stalls:split-2"):
            assert expected in names
        assert all(result.passed for result in results)

    def test_without_faults_is_unchanged(self):
        results = run_full_audit(misses=6, accesses=24,
                                 include_negative_control=False)
        assert not any(result.name.startswith(("faulted:",
                                               "timing+stalls:"))
                       for result in results)
