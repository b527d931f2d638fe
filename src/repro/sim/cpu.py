"""Event-driven trace CPU: LLC, in-order miss window, warm-up discipline.

Models the in-order 1.6 GHz core of Table II at trace granularity: each
record's gap is compute time; an LLC hit costs the 10-cycle LLC latency; a
miss occupies one of the core's outstanding-miss slots (the workload's MLP
bound) until the memory backend completes it.  Slots retire *in order* —
the oldest miss gates the window, as an in-order ROB does — while the
backend completes misses whenever its resources produce them.  Dirty LLC
victims are posted to the backend without blocking the core.

Following the paper's methodology, the run warms up the LLC (and the
backend's PLB and row buffers) before the measured window begins.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Dict, Iterable, Iterator, Optional

from repro.cache.cache import SetAssociativeCache
from repro.config import SystemConfig
from repro.obs.metrics import phase_breakdown
from repro.obs.tracer import CATEGORY_CPU, NULL_TRACER, Tracer
from repro.sim.events import EventQueue
from repro.sim.stats import LatencyStats, RunResult
from repro.utils.rng import DeterministicRng
from repro.workloads.trace import TraceRecord


class _MissSlot:
    """One in-flight demand miss in the core's window."""

    __slots__ = ("issue_cycle", "completion", "measured")

    def __init__(self, issue_cycle: int, measured: bool):
        self.issue_cycle = issue_cycle
        self.completion: Optional[int] = None
        self.measured = measured


class SimulationDriver:
    """Runs one trace through one backend and collects statistics.

    ``window_policy`` selects how miss-window slots retire: ``"in-order"``
    (default, Table II's in-order core — the oldest miss gates the window)
    or ``"out-of-order"`` (any completion frees a slot — an aggressive
    OoO core's behaviour, used to quantify how much of the SDIMM designs'
    headroom the in-order window leaves on the table).
    """

    def __init__(self, config: SystemConfig, backend, events: EventQueue,
                 mlp: int, workload_name: str = "workload",
                 window_policy: str = "in-order",
                 tracer: Tracer = NULL_TRACER):
        if window_policy not in ("in-order", "out-of-order"):
            raise ValueError(f"unknown window policy {window_policy!r}")
        self.config = config
        self.backend = backend
        self.events = events
        self.tracer = tracer
        self.mlp = max(1, mlp)
        self.window_policy = window_policy
        self.workload_name = workload_name
        self.llc = SetAssociativeCache(
            capacity_bytes=config.cpu.llc_bytes,
            line_bytes=config.cpu.llc_line_bytes,
            associativity=config.cpu.llc_assoc,
            name="llc")
        self._llc_latency = config.cpu.llc_latency_cycles
        # run state
        self._records: Optional[Iterator[TraceRecord]] = None
        self._window: deque = deque()
        self._cpu_clock = 0
        self._blocked = False
        self._warmup_records = 0
        self._record_index = 0
        self._window_start_cycle = 0
        self._accessorams_at_window = 0
        self._measured_misses = 0
        self._measured_hits = 0
        self._latency = LatencyStats(
            sample_rng=DeterministicRng(config.seed, "latency-reservoir"))
        self._final_cycle = 0

    # ------------------------------------------------------------------

    def run(self, trace: Iterable[TraceRecord],
            warmup_records: int = 0) -> RunResult:
        """Execute the trace; statistics cover the post-warm-up window."""
        self._records = iter(trace)
        self._warmup_records = warmup_records
        # a reused tracer holds earlier runs' events: attribute only ours
        first_event = len(getattr(self.tracer, "events", ()))
        self.events.at(0, self._issue_loop)
        self.events.run()
        end = max(self._final_cycle, self.events.now)
        self.backend.finalize(end)
        return self._build_result(end, first_event)

    # ------------------------------------------------------------------
    # The core's issue process
    # ------------------------------------------------------------------

    def _issue_loop(self) -> None:
        """Consume records until the miss window blocks or the trace ends."""
        while True:
            if len(self._window) >= self.mlp:
                self._blocked = True
                return  # resume from _on_completion when the head retires
            record = next(self._records, None)
            if record is None:
                self._final_cycle = max(self._final_cycle, self._cpu_clock)
                return
            self._step(record)

    def _step(self, record: TraceRecord) -> None:
        if self._record_index == self._warmup_records:
            self._begin_measurement()
        self._record_index += 1
        measuring = self._record_index > self._warmup_records

        self._cpu_clock += record.gap_cycles
        result = self.llc.access(record.line_address, record.is_write)
        if result.hit:
            self._cpu_clock += self._llc_latency
            if measuring:
                self._measured_hits += 1
            return
        if result.victim_dirty and result.victim_address is not None:
            # posted ORAM/DRAM write for the dirty victim
            self.backend.submit(result.victim_address, self._cpu_clock,
                                is_write=True)
        slot = _MissSlot(self._cpu_clock, measuring)
        self._window.append(slot)
        self.backend.submit(record.line_address, self._cpu_clock,
                            is_write=False,
                            on_complete=lambda finish, s=slot:
                            self._on_completion(s, finish))

    def _on_completion(self, slot: _MissSlot, finish: int) -> None:
        slot.completion = finish
        if self.window_policy == "out-of-order":
            self._window.remove(slot)
            self._retire(slot)
        else:
            # in-order retire: pop every completed miss at the window head
            while self._window and self._window[0].completion is not None:
                self._retire(self._window.popleft())
        if self._blocked and len(self._window) < self.mlp:
            self._blocked = False
            if self.events.now > self._cpu_clock:
                self._cpu_clock = self.events.now
            self._issue_loop()

    def _retire(self, slot: _MissSlot) -> None:
        completion = slot.completion
        if slot.measured:
            self._measured_misses += 1
            latency = completion - slot.issue_cycle
            self._latency.record(latency if latency > 0 else 0)
        if self.tracer.enabled:
            self.tracer.span("miss", CATEGORY_CPU, "cpu", slot.issue_cycle,
                             max(slot.issue_cycle, completion),
                             measured=int(slot.measured))
        # commit order: an in-order core cannot run past an unretired miss
        if self.window_policy == "in-order" and completion > self._cpu_clock:
            self._cpu_clock = completion
        if completion > self._final_cycle:
            self._final_cycle = completion

    # ------------------------------------------------------------------

    def _begin_measurement(self) -> None:
        self._window_start_cycle = self._cpu_clock
        self._accessorams_at_window = self.backend.counters.accessorams
        for bus in self.backend.buses:
            bus.block_transfers = 0
            bus.line_transfers = 0
            bus.command_slots = 0
            bus.busy_cycles = 0

    def _build_result(self, end: int, first_event: int) -> RunResult:
        execution = end - self._window_start_cycle
        total = self._measured_hits + self._measured_misses
        phases = {}
        if self.tracer.enabled:
            # Exclusive attribution of every measured-window cycle to the
            # highest-priority active protocol phase (or idle): the sum
            # equals execution_cycles by construction.
            phases = phase_breakdown(
                islice(getattr(self.tracer, "events", ()), first_event, None),
                self._window_start_cycle, end)
        return RunResult(
            design=self.config.design.value,
            workload=self.workload_name,
            execution_cycles=execution,
            miss_count=self._measured_misses,
            accessoram_count=(self.backend.counters.accessorams -
                              self._accessorams_at_window),
            llc_hit_rate=self._measured_hits / total if total else 0.0,
            miss_latency=self._latency,
            channel_counters=[
                dict(channel.counters.as_dict(),
                     on_dimm=int(channel.on_dimm))
                for channel in self.backend.channels],
            on_dimm_counters=[channel.counters.as_dict()
                              for channel in self.backend.channels
                              if channel.on_dimm],
            main_bus_lines=sum(bus.total_transfers
                               for bus in self.backend.buses),
            probe_commands=self.backend.counters.probe_commands,
            drain_accesses=self.backend.counters.drain_accesses,
            rank_residencies=self._residencies(),
            phase_cycles=phases,
            extras=self._extras(),
        )

    def _extras(self) -> Dict[str, float]:
        """Auxiliary deterministic measures (digest-protected like the rest).

        ``fastpath_hit_rate`` is the fraction of ORAM path accesses the
        macro-replay core stamped without falling back to the event core.
        Eligibility is a pure function of simulated state, so the rate is
        identical across hosts, job counts, and cache replays — only the
        reference core (``REPRO_REFERENCE_CORE=1``), which stamps no
        pass, reports 0.0.
        """
        stats_fn = getattr(self.backend, "fastpath_stats", None)
        if stats_fn is None:
            return {}
        attempts, fast = stats_fn()
        rate = fast / attempts if attempts else 0.0
        return {"fastpath_hit_rate": rate}

    def _residencies(self):
        residencies = []
        for channel in self.backend.channels:
            for rank in channel.ranks:
                entry = {state.value: cycles
                         for state, cycles in rank.state_residency.items()}
                entry["refreshes"] = rank.refresh_count
                entry["power_down_exits"] = rank.power_down_exits
                residencies.append(entry)
        return residencies
