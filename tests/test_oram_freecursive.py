"""Tests for the functional Freecursive ORAM (PLB + backends)."""

from repro.config import OramConfig
from repro.obs.audit import bucket_touches
from repro.obs.tracer import CollectingTracer
from repro.oram.freecursive import FreecursiveOram
from repro.utils.rng import DeterministicRng


def make_freecursive(plb_enabled=True, levels=14):
    config = OramConfig(levels=levels, cached_levels=3, recursive_posmaps=3,
                        plb_bytes=2048, plb_assoc=4)
    return FreecursiveOram(config, DeterministicRng(9, "fc"),
                           data_levels=10, plb_enabled=plb_enabled)


class TestFreecursiveCorrectness:
    def test_read_after_write(self):
        oram = make_freecursive()
        oram.write(42, b"Q" * 64)
        assert oram.read(42) == b"Q" * 64

    def test_unwritten_reads_zero(self):
        oram = make_freecursive()
        assert oram.read(3) == bytes(64)

    def test_many_addresses(self):
        oram = make_freecursive()
        for address in range(0, 400, 13):
            oram.write(address, address.to_bytes(2, "little") * 32)
        for address in range(0, 400, 13):
            assert oram.read(address) == address.to_bytes(2, "little") * 32

    def test_correct_with_plb_disabled(self):
        oram = make_freecursive(plb_enabled=False)
        oram.write(42, b"Q" * 64)
        assert oram.read(42) == b"Q" * 64


class TestFreecursiveEfficiency:
    def test_plb_reduces_accesses(self):
        """The whole point of Freecursive: far fewer path accesses."""
        with_plb = make_freecursive(plb_enabled=True)
        without_plb = make_freecursive(plb_enabled=False)
        for oram in (with_plb, without_plb):
            for round_number in range(5):
                for address in range(0, 64):
                    oram.read(address)
        assert with_plb.total_path_accesses < \
            0.6 * without_plb.total_path_accesses

    def test_locality_drives_ratio_toward_one(self):
        oram = make_freecursive()
        for _ in range(40):
            for address in range(16):
                oram.read(address)
        assert oram.accesses_per_request < 1.2

    def test_random_traffic_ratio_above_one(self):
        oram = make_freecursive()
        rng = DeterministicRng(11, "addrs")
        for _ in range(300):
            oram.read(rng.randrange(1 << 16))
        assert oram.accesses_per_request > 1.05

    def test_backend_accesses_match_frontend_count(self):
        oram = make_freecursive()
        for address in range(50):
            oram.read(address * 97)
        assert oram.total_path_accesses == oram.frontend.accesses


def make_unified(levels=14):
    config = OramConfig(levels=levels, cached_levels=3, recursive_posmaps=3,
                        plb_bytes=2048, plb_assoc=4)
    return FreecursiveOram(config, DeterministicRng(9, "fc-uni"),
                           data_levels=10, unified_tree=True)


class TestUnifiedTree:
    """Fletcher et al. (and the paper) store all ORAMs in one tree."""

    def test_read_after_write(self):
        oram = make_unified()
        oram.write(42, b"U" * 64)
        assert oram.read(42) == b"U" * 64

    def test_many_addresses(self):
        oram = make_unified()
        for address in range(0, 200, 7):
            oram.write(address, address.to_bytes(2, "little") * 32)
        for address in range(0, 200, 7):
            assert oram.read(address) == address.to_bytes(2, "little") * 32

    def test_single_shared_tree(self):
        oram = make_unified()
        assert len({id(level) for level in oram.orams}) == 1

    def test_posmap_and_data_share_paths(self):
        """Every access, PosMap or data, is a path of the one tree — the
        leakage-free property unification buys."""
        oram = make_unified()
        oram.read(7)
        shared = oram.orams[0]
        assert shared.access_count == oram.frontend.accesses

    def test_accounting_not_double_counted(self):
        oram = make_unified()
        oram.read(1)
        assert oram.total_path_accesses == oram.frontend.accesses

    def test_namespacing_keeps_levels_apart(self):
        """Data block 5 and PosMap block 5 must not collide."""
        oram = make_unified()
        oram.write(5, b"D" * 64)
        # force PosMap traffic around block address 5 at higher levels
        for address in range(0, 90, 5):
            oram.read(address)
        assert oram.read(5) == b"D" * 64


class TestBucketLanes:
    """Each tree's bucket touches trace on a lane of its own."""

    def test_separate_trees_trace_on_one_lane_each(self):
        config = OramConfig(levels=14, cached_levels=3, recursive_posmaps=3,
                            plb_bytes=2048, plb_assoc=4)
        tracer = CollectingTracer()
        oram = FreecursiveOram(config, DeterministicRng(9, "fc"),
                               data_levels=10, tracer=tracer)
        for address in range(0, 400, 13):
            oram.read(address)
        for level, tree in enumerate(oram.orams):
            touches = bucket_touches(tracer.events, f"main.oram{level}")
            reads = [bucket for kind, bucket in touches if kind == "read"]
            assert len(reads) == \
                tree.access_count * tree.geometry.levels
            assert max(bucket for _, bucket in touches) < \
                tree.geometry.bucket_count
        assert bucket_touches(tracer.events, "main") == []

    def test_unified_tree_traces_on_main(self):
        tracer = CollectingTracer()
        config = OramConfig(levels=14, cached_levels=3, recursive_posmaps=3,
                            plb_bytes=2048, plb_assoc=4)
        oram = FreecursiveOram(config, DeterministicRng(9, "fc-uni"),
                               data_levels=10, unified_tree=True,
                               tracer=tracer)
        oram.read(1)
        reads = [kind for kind, _ in bucket_touches(tracer.events, "main")
                 if kind == "read"]
        shared = oram.orams[0]
        assert len(reads) == shared.access_count * shared.geometry.levels
