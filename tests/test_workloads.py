"""Tests for trace records, the synthetic generator, and SPEC profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.spec import (
    SPEC_PROFILES,
    WorkloadProfile,
    get_profile,
    profile_names,
)
from repro.workloads.synthetic import generate_trace, iterate_trace
from repro.workloads.trace import TraceRecord, load_trace, save_trace


class TestTraceRecord:
    def test_valid_record(self):
        record = TraceRecord(10, 0x1000, True)
        assert record.gap_cycles == 10

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, 0, False)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            TraceRecord(0, -5, False)

    def test_save_load_roundtrip(self, tmp_path):
        records = [TraceRecord(5, 0xABC, False), TraceRecord(0, 0, True)]
        path = str(tmp_path / "trace.txt")
        assert save_trace(records, path) == 2
        assert load_trace(path) == records

    def test_load_skips_comments(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n5 abc r\n\n0 0 w\n")
        assert len(load_trace(str(path))) == 2

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 abc x\n")
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestProfiles:
    def test_ten_benchmarks(self):
        assert len(SPEC_PROFILES) == 10
        assert set(profile_names()) == set(SPEC_PROFILES)

    def test_paper_narrative_mlp(self):
        """gromacs/omnetpp are high-MLP; GemsFDTD is low-MLP."""
        assert get_profile("gromacs").mlp >= 10
        assert get_profile("omnetpp").mlp >= 8
        assert get_profile("GemsFDTD").mlp <= 2

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(ValueError, match="GemsFDTD"):
            get_profile("doom")

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", 1024, 1.5, 4, 10, 0.1, 4, 0.1, 64)
        with pytest.raises(ValueError):
            WorkloadProfile("x", 1024, 0.5, 0, 10, 0.1, 4, 0.1, 64)
        with pytest.raises(ValueError):
            WorkloadProfile("x", 1024, 0.5, 4, 10, 0.7, 4, 0.7, 64)

    def test_footprints_exceed_llc(self):
        """Miss-heavy by construction: footprints dwarf the 2 MB LLC."""
        for profile in SPEC_PROFILES.values():
            assert profile.footprint_bytes > 8 * 2 * 1024 * 1024


class TestGenerator:
    def test_length(self):
        trace = generate_trace(get_profile("mcf"), 500)
        assert len(trace) == 500

    def test_deterministic_per_seed(self):
        profile = get_profile("mcf")
        assert generate_trace(profile, 200, seed=1) == \
            generate_trace(profile, 200, seed=1)
        assert generate_trace(profile, 200, seed=1) != \
            generate_trace(profile, 200, seed=2)

    def test_addresses_within_footprint(self):
        profile = get_profile("gromacs")
        lines = profile.footprint_bytes // 64
        for record in generate_trace(profile, 2000):
            assert 0 <= record.line_address < lines

    def test_write_fraction_approximate(self):
        profile = get_profile("lbm")  # write fraction 0.45
        trace = generate_trace(profile, 5000)
        writes = sum(record.is_write for record in trace)
        assert 0.38 < writes / 5000 < 0.52

    def test_mean_gap_approximate(self):
        profile = get_profile("mcf")
        trace = generate_trace(profile, 5000)
        mean_gap = sum(record.gap_cycles for record in trace) / 5000
        assert 0.8 * profile.mean_gap_cycles < mean_gap < \
            1.2 * profile.mean_gap_cycles

    def test_sequential_fraction_shows_up(self):
        profile = get_profile("libquantum")  # heavy streaming
        trace = generate_trace(profile, 5000)
        sequential = sum(
            1 for previous, current in zip(trace, trace[1:])
            if current.line_address == previous.line_address + 1)
        assert sequential / 5000 > 0.4

    def test_hot_set_reuse(self):
        profile = get_profile("omnetpp")  # hot-set dominated
        trace = generate_trace(profile, 8000)
        addresses = [record.line_address for record in trace]
        unique = len(set(addresses))
        assert unique < 0.6 * len(addresses)

    def test_iterator_streams(self):
        iterator = iterate_trace(get_profile("mcf"), 10)
        assert len(list(iterator)) == 10

    @settings(max_examples=10)
    @given(st.sampled_from(sorted(SPEC_PROFILES)))
    def test_every_profile_generates(self, name):
        trace = generate_trace(get_profile(name), 100)
        assert len(trace) == 100
