"""Cross-tier consistency: the functional and timing tiers must agree on
the protocol's observable structure, since they share no protocol code.

If the functional Independent protocol sends K link messages per access,
the timing backend must reserve K bus transfers per accessORAM; if the
functional path touches B buckets, the timing path must schedule the
same number of DRAM lines.  Divergence here means one tier drifted from
the paper's protocol.
"""

import pytest

from repro.config import DesignPoint, table2_config
from repro.core.commands import SdimmCommand
from repro.core.independent import IndependentProtocol
from repro.core.split import SplitProtocol
from repro.obs.audit import bucket_touches, link_instants
from repro.obs.tracer import CollectingTracer
from repro.sim.events import EventQueue
from repro.sim.system import build_backend, run_trace_file
from repro.workloads.trace import TraceRecord, save_trace


class TestIndependentMessageCounts:
    def test_blocks_per_access_match(self):
        """Functional: ACCESS + FETCH_RESULT + N APPENDs carry blocks.
        Timing: the same count of bus block reservations per accessORAM."""
        sdimms = 2
        tracer = CollectingTracer()
        functional = IndependentProtocol(global_levels=8,
                                         sdimm_count=sdimms,
                                         block_bytes=16,
                                         stash_capacity=200,
                                         drain_probability=0.0,
                                         tracer=tracer)
        accesses = 12
        for address in range(accesses):
            functional.read(address)
        block_commands = {command.value for command in (
            SdimmCommand.ACCESS, SdimmCommand.FETCH_RESULT,
            SdimmCommand.APPEND)}
        block_messages = sum(
            1 for event in link_instants(tracer.events,
                                         functional.link.lane)
            if event.name in block_commands and
            event.args["payload_bytes"] > 0)
        functional_per_access = block_messages / accesses

        events = EventQueue()
        backend = build_backend(table2_config(DesignPoint.INDEP_2,
                                              channels=1), events)
        for index in range(40):
            backend.submit(index << 12, 0, False)
        events.run()
        timing_blocks = sum(bus.block_transfers for bus in backend.buses)
        timing_per_access = timing_blocks / backend.counters.accessorams

        assert functional_per_access == timing_per_access == 2 + sdimms

    def test_path_bucket_counts_match(self):
        """Functional buffers and timing devices walk same-length paths."""
        tracer = CollectingTracer()
        functional = IndependentProtocol(global_levels=10, sdimm_count=2,
                                         block_bytes=16,
                                         stash_capacity=200,
                                         drain_probability=0.0,
                                         tracer=tracer)
        functional.read(1)
        trace = [touches for touches in (
                     bucket_touches(tracer.events, sdimm.oram.trace_lane)
                     for sdimm in functional.sdimms) if touches][0]
        functional_buckets = len(trace) // 2  # read + write

        config = table2_config(DesignPoint.INDEP_2, channels=1)
        backend = build_backend(config)
        device = backend.devices[0]
        # same formula: local levels minus cached levels
        expected_dram_buckets = (device.geometry.levels -
                                 device.skip_levels)
        # the functional tier has no on-chip cache: full local depth
        assert functional_buckets == functional.sdimms[0].oram.geometry.levels
        assert device.dram_path_lines == \
            expected_dram_buckets * config.oram.lines_per_bucket


class TestSplitMessageStructure:
    def test_metadata_volume_matches(self):
        """Functional: one metadata slice per bucket per way.  Timing: the
        same per-bucket metadata line count on the buses."""
        levels = 8
        tracer = CollectingTracer()
        functional = SplitProtocol(levels=levels, ways=2, block_bytes=16,
                                   stash_capacity=200, tracer=tracer)
        functional.read(1)
        metadata_messages = sum(1 for event in link_instants(
            tracer.events, functional.link.lane) if event.name == "data")
        assert metadata_messages == levels * 2  # one slice per way/bucket

        config = table2_config(DesignPoint.SPLIT_2, channels=1)
        backend = build_backend(config)
        group = backend.group
        # the timing model ships ceil(buckets/ways) lines per member bus:
        # together one metadata line per bucket (rounded up per member)
        import math
        per_member = math.ceil(group._path_buckets / group.ways)
        assert per_member * group.ways >= group._path_buckets


class TestTraceFileReplay:
    def test_saved_trace_replays(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        records = [TraceRecord(20, index * 7, index % 3 == 0)
                   for index in range(400)]
        save_trace(records, path)
        config = table2_config(DesignPoint.NONSECURE, channels=1)
        result = run_trace_file(config, path, mlp=4)
        assert result.miss_count > 0
        assert result.workload == path

    def test_replay_deterministic(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        save_trace([TraceRecord(10, index, False) for index in range(200)],
                   path)
        config = table2_config(DesignPoint.FREECURSIVE, channels=1)
        first = run_trace_file(config, path)
        second = run_trace_file(config, path)
        assert first.execution_cycles == second.execution_cycles

    def test_warmup_bounds_checked(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        save_trace([TraceRecord(0, 1, False)], path)
        config = table2_config(DesignPoint.NONSECURE, channels=1)
        with pytest.raises(ValueError):
            run_trace_file(config, path, warmup_records=5)
