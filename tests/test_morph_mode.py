"""Tests for the morphed (non-secure) SDIMM mode of Section III-A.4."""

from repro.config import DesignPoint, table2_config
from repro.sim.events import EventQueue
from repro.sim.system import build_backend


def make_backend():
    events = EventQueue()
    backend = build_backend(table2_config(DesignPoint.INDEP_2, channels=1),
                            events)
    return backend, events


class TestMorphMode:
    def test_plain_access_completes(self):
        backend, events = make_backend()
        completions = []
        backend.submit_plain(123, 0, False, completions.append)
        events.run()
        assert len(completions) == 1
        assert completions[0] > 0

    def test_plain_access_is_cheap(self):
        """A morphed access costs DRAM latency plus two link messages —
        orders of magnitude below an accessORAM."""
        backend, events = make_backend()
        plain = []
        backend.submit_plain(123, 0, False, plain.append)
        events.run()

        oram_backend, oram_events = make_backend()
        oram = []
        oram_backend.submit(123, 0, False, oram.append)
        oram_events.run()
        assert plain[0] < oram[0] / 10

    def test_plain_writes_posted(self):
        backend, events = make_backend()
        backend.submit_plain(55, 0, True)
        events.run()
        writes = sum(channel.counters.writes
                     for channel in backend.channels)
        assert writes == 1

    def test_plain_and_secure_coexist(self):
        """Morphing per-request: secure and plain traffic interleave on the
        same devices without deadlock or miscount."""
        backend, events = make_backend()
        completions = []
        for index in range(6):
            backend.submit(index << 12, 0, False, completions.append)
            backend.submit_plain(index, 0, False, completions.append)
        events.run()
        assert len(completions) == 12
        assert backend.counters.accessorams >= 6

    def test_plain_uses_link_messages(self):
        backend, events = make_backend()
        before = backend.buses[0].block_transfers
        backend.submit_plain(1, 0, False, lambda t: None)
        events.run()
        assert backend.buses[0].block_transfers == before + 2
