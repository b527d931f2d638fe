"""Sharding primitives: spec validation, the ring, workers, migration."""

import pytest

from repro.serve.bench import (ServeSpec, _SERVE_KEY, build_serving_protocol,
                               serving_key)
from repro.serve.shard import (ShardPlan, build_plan, model_migrations,
                               route_requests, run_shard)

SMALL = dict(design="independent", levels=6, requests=96, capacity=16,
             batch=4, rate=0.02, seed=2018)


def shard_spec(**fields):
    """A small two-shard point; ``fields`` override."""
    merged = dict(SMALL, shards=2)
    merged.update(fields)
    return ServeSpec(**merged)


class TestShardSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            shard_spec(shards=3)
        with pytest.raises(ValueError):
            shard_spec(shards=2, subtrees=6)
        with pytest.raises(ValueError):
            shard_spec(shards=4, subtrees=2)
        with pytest.raises(ValueError):
            # levels=6 -> 32 leaves; 64 subtrees cannot fit
            shard_spec(shards=2, subtrees=64)
        with pytest.raises(ValueError):
            shard_spec(virtual_nodes=0)
        with pytest.raises(ValueError):
            shard_spec(migration_capacity=0)
        with pytest.raises(ValueError):
            shard_spec(migration_drain=1.5)
        with pytest.raises(ValueError):
            shard_spec(quarantined=(9,), shards=2)

    def test_shared_serving_validation_is_delegated(self):
        with pytest.raises(ValueError):
            shard_spec(design="mystery")
        with pytest.raises(ValueError):
            shard_spec(capacity=0, levels=6, rate=0.02)

    def test_quarantine_needs_a_quarantinable_design(self):
        shard_spec(design="independent", quarantined=(0,))
        shard_spec(design="indep-split", quarantined=(0,))
        with pytest.raises(ValueError):
            shard_spec(design="split", quarantined=(0,))

    def test_quarantined_is_canonicalized(self):
        spec = shard_spec(quarantined=(1, 0, 1))
        assert spec.quarantined == (0, 1)

    def test_round_trips_through_dict(self):
        spec = shard_spec(shards=4, subtrees=16, quarantined=(2,))
        assert ServeSpec.from_dict(spec.to_dict()) == spec

    def test_dict_payload_is_json_ready(self):
        import json

        payload = shard_spec(quarantined=(1,)).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_one_shard_serializes_as_the_single_server(self):
        shard_fields = {"shards", "subtrees", "virtual_nodes",
                        "migration_capacity", "migration_drain",
                        "quarantined"}
        single = ServeSpec(**SMALL).to_dict()
        assert not shard_fields & set(single)
        assert set(shard_spec().to_dict()) - set(single) == shard_fields

    def test_shard_geometry_is_checked_only_when_sharded(self):
        # levels=4 -> 8 leaves: the default 16 subtrees matter only once
        # the leaf space is actually cut into shards
        ServeSpec(**dict(SMALL, levels=4))
        with pytest.raises(ValueError, match="more subtrees than leaves"):
            shard_spec(levels=4)

    def test_quarantine_needs_more_than_one_shard(self):
        with pytest.raises(ValueError, match="shards > 1"):
            ServeSpec(**dict(SMALL, quarantined=(0,)))


class TestShardPlan:
    def test_plan_is_a_pure_function_of_the_spec(self):
        spec = shard_spec(shards=4, subtrees=16)
        assert build_plan(spec).assignments() == \
            build_plan(spec).assignments()

    def test_every_subtree_is_assigned_in_range(self):
        plan = ShardPlan(shards=4, subtrees=32, levels=9, virtual_nodes=8)
        assignments = plan.assignments()
        assert len(assignments) == 32
        assert set(assignments.values()) <= set(range(4))
        # virtual nodes spread load: no shard owns everything
        assert len(set(assignments.values())) > 1

    def test_subtree_of_is_the_leaf_msb_split(self):
        # levels=6 -> 32 leaves; 8 subtrees -> top 3 bits, shift 2
        plan = ShardPlan(shards=2, subtrees=8, levels=6, virtual_nodes=4)
        assert plan.subtree_of(0) == 0
        assert plan.subtree_of(3) == 0
        assert plan.subtree_of(4) == 1
        assert plan.subtree_of(31) == 7

    def test_growing_the_ring_moves_only_rehashed_subtrees(self):
        """Consistent hashing: 2 -> 4 shards must keep most assignments."""
        small = ShardPlan(shards=2, subtrees=64, levels=9, virtual_nodes=8)
        large = ShardPlan(shards=4, subtrees=64, levels=9, virtual_nodes=8)
        kept = sum(
            1 for subtree in range(64)
            if small.shard_of_subtree(subtree) ==
            large.shard_of_subtree(subtree))
        # subtrees staying on shards 0/1 never move under consistent
        # hashing; naive modulo rehashing would keep only ~half
        assert kept >= 64 // 4
        moved_to_new = sum(
            1 for subtree in range(64)
            if large.shard_of_subtree(subtree) >= 2)
        assert moved_to_new > 0

    def test_shares_sum_to_one(self):
        plan = ShardPlan(shards=4, subtrees=16, levels=9, virtual_nodes=8)
        assert sum(plan.shares()) == pytest.approx(1.0)


class TestRouting:
    def test_routing_covers_the_whole_timeline(self):
        spec = shard_spec(shards=4, subtrees=16)
        routed = route_requests(spec)
        assert len(routed) == spec.requests
        assert all(0 <= shard < spec.shards for shard, _ in routed)
        plan = build_plan(spec)
        assert all(plan.shard_of_address(request.address) == shard
                   for shard, request in routed)

    def test_shard_slices_partition_the_timeline(self):
        spec = shard_spec(shards=4, subtrees=16)
        routed = route_requests(spec)
        per_shard = [[r for owner, r in routed if owner == shard]
                     for shard in range(spec.shards)]
        assert sum(len(slice_) for slice_ in per_shard) == len(routed)


class TestRunShard:
    def test_worker_is_deterministic(self):
        spec = shard_spec(shards=2, subtrees=8)
        assert run_shard(spec, 0) == run_shard(spec, 0)

    def test_out_of_range_shard_rejected(self):
        spec = shard_spec(shards=2, subtrees=8)
        with pytest.raises(ValueError):
            run_shard(spec, 2)

    def test_reports_carry_the_shard_identity(self):
        spec = shard_spec(shards=2, subtrees=8)
        payload = run_shard(spec, 1)
        assert payload["report"]["spec"]["shard"] == 1
        assert payload["metrics"]["gauges"]["shard/id"]["last"] == 1

    def test_quarantined_shard_degrades_every_access(self):
        spec = shard_spec(shards=2, subtrees=8, quarantined=(1,))
        healthy = run_shard(spec, 0)
        degraded = run_shard(spec, 1)
        assert healthy["report"]["degraded"]["quarantined"] is False
        assert healthy["report"]["degraded"]["degraded_accesses"] == 0
        assert degraded["report"]["degraded"]["quarantined"] is True
        assert degraded["report"]["degraded"]["degraded_accesses"] == \
            degraded["report"]["totals"]["accesses"] > 0
        # degraded service still completes and respects the queue bound
        assert degraded["report"]["totals"]["completed"] == \
            degraded["report"]["totals"]["admitted"]
        assert degraded["report"]["queue"]["depth_bounded"] is True

    def test_quarantine_leaves_the_link_shape_alone(self):
        """Degraded accesses must be link-indistinguishable: same total
        per-access traffic as the healthy run of the same slice."""
        base = dict(SMALL)
        healthy_spec = shard_spec(shards=2, subtrees=8, **base)
        sick_spec = shard_spec(shards=2, subtrees=8, quarantined=(0,),
                              **base)
        healthy = run_shard(healthy_spec, 0)["report"]
        sick = run_shard(sick_spec, 0)["report"]
        assert healthy["totals"]["accesses"] == sick["totals"]["accesses"]
        assert healthy["service"]["busy_ticks"] == \
            sick["service"]["busy_ticks"]


class TestMigrationModel:
    def spec(self, **overrides):
        merged = dict(SMALL, shards=4, subtrees=16)
        merged.update(overrides)
        return ServeSpec(**merged)

    def test_migration_fraction_tracks_expectation(self):
        spec = self.spec(requests=400)
        plan = build_plan(spec)
        stats = model_migrations(spec, plan, route_requests(spec, plan))
        assert stats["accesses"] == 400
        assert 0.0 < stats["migration_fraction"] <= 1.0
        assert stats["migration_fraction"] == pytest.approx(
            stats["expected_migration_fraction"], abs=0.1)

    def test_single_shard_never_migrates(self):
        spec = self.spec(shards=1, subtrees=1)
        plan = build_plan(spec)
        stats = model_migrations(spec, plan, route_requests(spec, plan))
        assert stats["migrations"] == 0
        assert stats["overflows"] == 0

    def test_tiny_undrained_queue_overflows_and_is_counted(self):
        spec = self.spec(requests=400, migration_capacity=1,
                         migration_drain=0.0)
        plan = build_plan(spec)
        stats = model_migrations(spec, plan, route_requests(spec, plan))
        assert stats["overflows"] > 0
        assert stats["overflow_rate"] > 0.0
        per_shard = stats["per_shard"]
        assert sum(entry["overflows"] for entry in per_shard.values()) == \
            stats["overflows"]

    def test_analytic_cross_checks_are_present(self):
        from repro.analysis.queueing import \
            transfer_queue_overflow_probability

        spec = self.spec()
        plan = build_plan(spec)
        stats = model_migrations(spec, plan, route_requests(spec, plan))
        model = stats["model"]
        assert model["mm1k_overflow_probability"] == pytest.approx(
            transfer_queue_overflow_probability(spec.migration_drain,
                                                spec.migration_capacity))
        assert 0.0 <= model["undrained_first_passage"] <= 1.0


class TestShardKeys:
    def test_one_shard_keeps_the_serving_key(self):
        assert serving_key(ServeSpec(**SMALL)) == _SERVE_KEY == \
            b"serve-bench-key"

    def test_every_shard_gets_its_own_key(self):
        spec = shard_spec(shards=4, subtrees=16)
        keys = {serving_key(spec, shard) for shard in range(4)}
        assert len(keys) == 4
        assert _SERVE_KEY not in keys

    def test_shards_with_equal_bucket_and_counter_share_no_pad(self):
        """Under one key per tier, two shards' DRAM cells with an equal
        (bucket, counter) used one pad, so their ciphertexts XORed to the
        XOR of their plaintexts."""
        spec = ServeSpec(design="independent", shards=2, levels=8, sites=2)
        protocols = [build_serving_protocol(spec, shard)
                     for shard in range(2)]
        protocols[0].write(3, bytes([0x5A]) * spec.block_bytes)
        protocols[1].write(40, bytes([0xC3]) * spec.block_bytes)
        shared = 0
        for first, second in zip(protocols[0].sdimms, protocols[1].sdimms):
            stores = (first.oram.store, second.oram.store)
            for bucket, counter in stores[0]._expected_counters.items():
                if stores[1]._expected_counters.get(bucket) != counter:
                    continue
                shared += 1
                cells = [store.snapshot(bucket)[0] for store in stores]
                plains = [store._cipher.decrypt(cell, bucket, counter)
                          for store, cell in zip(stores, cells)]
                assert xor(*cells) != xor(*plains)
        assert shared > 0

    def test_shards_draw_different_leaf_streams(self):
        spec = ServeSpec(design="independent", shards=2, levels=8, sites=2)
        streams = []
        for shard in range(2):
            protocol = build_serving_protocol(spec, shard)
            streams.append([[sdimm.oram.rng.random_leaf(1 << 20)
                             for _ in range(16)]
                            for sdimm in protocol.sdimms])
        for first, second in zip(*streams):
            assert first != second


def xor(left, right):
    return bytes(a ^ b for a, b in zip(left, right))
