"""Tests for repro.faults.campaign: end-to-end faulted runs."""

import hashlib
import json

import pytest

from repro.core.designs import PROTOCOL_DESIGNS, build_protocol
from repro.faults.campaign import (_CAMPAIGN_KEY, CampaignSpec,
                                   build_faulted_protocol,
                                   campaign_request, run_campaign,
                                   run_campaign_sweep)
from repro.faults.plan import FAULT_BIT_FLIP, FaultPlan, FaultSpec
from repro.obs.audit import link_shapes
from repro.obs.tracer import CATEGORY_LINK, NULL_TRACER, CollectingTracer
from repro.parallel import fingerprint as fingerprint_module
from repro.parallel.cache import RunCache
from repro.parallel.pool import fanout
from repro.utils.rng import DeterministicRng


def faulty_spec(design, **overrides):
    kwargs = dict(design=design, accesses=48, levels=5, sites=2,
                  seed=2018, bit_flips=2, replays=1, stuck_cells=1,
                  link_drops=1, link_duplicates=1, link_delays=1,
                  buffer_stalls=1)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestSpec:
    def test_round_trip(self):
        spec = faulty_spec("split")
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(design="tofu")
        with pytest.raises(ValueError):
            CampaignSpec(accesses=0)

    def test_plan_sites_collapse_for_plain_split(self):
        assert faulty_spec("split").plan_sites == 1
        assert faulty_spec("independent").plan_sites == 2

    def test_plain_split_records_the_two_ways_it_runs(self):
        four = faulty_spec("split", sites=4, accesses=24)
        assert four == faulty_spec("split", sites=2, accesses=24)
        assert run_campaign(four).to_dict()["spec"]["sites"] == 2
        assert faulty_spec("independent", sites=4).sites == 4

    def test_build_plan_is_deterministic(self):
        spec = faulty_spec("independent")
        assert spec.build_plan() == spec.build_plan()


class TestZeroFaultEquivalence:
    """An empty plan must leave the protocol byte-identical to bare."""

    @pytest.mark.parametrize("design", ["independent", "split",
                                        "indep-split"])
    def test_link_shapes_match_the_bare_protocol(self, design):
        spec = faulty_spec(design, bit_flips=0, replays=0, stuck_cells=0,
                           link_drops=0, link_duplicates=0, link_delays=0,
                           buffer_stalls=0)
        empty = FaultPlan(seed=spec.seed, specs=())
        wrapped_trace, bare_trace = CollectingTracer(), CollectingTracer()
        wrapped, injector, stats = build_faulted_protocol(
            spec, empty, tracer=wrapped_trace)
        bare = build_protocol(spec.design, spec.levels, spec.sites,
                              seed=spec.seed, key=_CAMPAIGN_KEY,
                              tracer=bare_trace)
        addresses = [i % 8 for i in range(24)]
        for index, address in enumerate(addresses):
            injector.begin_access(index)
            wrapped.read(address)
            bare.read(address)
        lane = bare.link.lane
        assert link_shapes(wrapped_trace.events, lane) == \
            link_shapes(bare_trace.events, lane)
        assert stats.detections == 0
        assert stats.retries == 0

    def test_zero_fault_campaign_report_is_clean(self):
        spec = faulty_spec("independent", bit_flips=0, replays=0,
                           stuck_cells=0, link_drops=0, link_duplicates=0,
                           link_delays=0, buffer_stalls=0)
        outcome = run_campaign(spec)
        assert outcome.completed
        assert outcome.accesses_completed == spec.accesses
        assert outcome.resilience["detections"] == 0
        assert outcome.resilience["failures"] == []
        assert outcome.all_detected    # vacuously: nothing injected


class TestFaultedCampaigns:
    @pytest.mark.parametrize("design", ["independent", "split",
                                        "indep-split"])
    @pytest.mark.parametrize("seed", [7, 2018])
    def test_every_applied_integrity_fault_is_detected(self, design, seed):
        outcome = run_campaign(faulty_spec(design, seed=seed))
        assert outcome.all_detected
        detection = outcome.detection["integrity"]
        assert detection["missed"] == 0
        assert detection["applied"] + detection["vacuous"] == \
            detection["scheduled"]

    @pytest.mark.parametrize("design", ["independent", "split",
                                        "indep-split"])
    def test_replay_is_byte_identical(self, design):
        spec = faulty_spec(design)
        first = run_campaign(spec).canonical_json()
        second = run_campaign(spec).canonical_json()
        assert first == second

    @pytest.mark.parametrize("plan", [
        # two flips armed on one Split access
        FaultPlan(seed=0, specs=(FaultSpec(12, FAULT_BIT_FLIP),
                                 FaultSpec(12, FAULT_BIT_FLIP))),
        # the plan `repro faults --design split --seeds 4 --bit-flips 3
        # --replays 2` draws: two of its flips land on one access
        CampaignSpec(design="split", seed=4, accesses=64, bit_flips=3,
                     replays=2).build_plan(),
    ], ids=["same-access", "cli-seed-4"])
    def test_split_flips_on_one_access_do_not_cancel(self, plan):
        flips = [spec.access_index for spec in plan.specs
                 if spec.kind == FAULT_BIT_FLIP]
        assert len(flips) > len(set(flips))
        outcome = run_campaign(CampaignSpec(design="split", seed=4,
                                            accesses=64), plan=plan)
        assert outcome.completed, outcome.terminal
        assert outcome.all_detected
        integrity = outcome.detection["integrity"]
        assert integrity["detected"] == integrity["applied"] >= 2

    def test_independent_stuck_cell_quarantines(self):
        outcome = run_campaign(faulty_spec("independent"))
        assert outcome.completed
        assert outcome.quarantined
        assert outcome.resilience["quarantines"] >= 1
        assert any(record.get("action") == "quarantined"
                   for record in outcome.resilience["failures"])

    def test_split_stuck_cell_is_a_structured_terminal(self):
        outcome = run_campaign(faulty_spec("split"))
        assert not outcome.completed
        assert outcome.terminal is not None
        assert outcome.terminal["kind"] == "RetryExhaustedError"
        assert outcome.terminal["terminal"] is True
        assert outcome.accesses_completed < outcome.spec.accesses

    def test_metrics_surface_fault_counters(self):
        outcome = run_campaign(faulty_spec("independent"))
        counters = outcome.metrics["counters"]
        assert counters["faults/detections"] >= 1
        assert "faults/degraded_accesses" in counters

    def test_outcome_dict_is_json_serializable(self):
        payload = run_campaign(faulty_spec("indep-split")).to_dict()
        restored = json.loads(json.dumps(payload))
        assert restored["all_detected"] is True
        assert restored["plan_digest"] == payload["plan_digest"]


def dict_replay(design, seed, **faults):
    """Drive a faulted protocol through 64 accesses over 8 addresses,
    half writes; returns the reads whose bytes differ from a dict's, and
    the resilience stats."""
    spec = CampaignSpec(design=design, accesses=64, seed=seed, **faults)
    protocol, injector, stats = build_faulted_protocol(spec,
                                                       spec.build_plan())
    workload = DeterministicRng(seed, "faults/workload")
    truth = {}
    wrong = 0
    for index in range(spec.accesses):
        injector.begin_access(index)
        address = workload.randrange(8)
        do_write = workload.randrange(2) == 1
        data = bytes([workload.randrange(256)]) * spec.block_bytes
        if do_write:
            protocol.write(address, data)
            truth[address] = data
        elif protocol.read(address) != truth.get(address,
                                                 bytes(spec.block_bytes)):
            wrong += 1
    return wrong, stats


#: Seeds whose Split and INDEP-SPLIT replays served wrong bytes when a
#: retry re-verified the healed store but served the data fetched first;
#: Independent, which re-reads through its store, is the control.
DICT_REPLAY_SEEDS = {"independent": (9, 10), "split": (2, 9),
                     "indep-split": (6, 10)}


@pytest.mark.parametrize("fault", ["bit_flips", "replays"])
@pytest.mark.parametrize("design", PROTOCOL_DESIGNS)
def test_faulted_reads_return_what_was_written(design, fault):
    for seed in DICT_REPLAY_SEEDS[design]:
        wrong, stats = dict_replay(design, seed, **{fault: 3})
        assert stats.detections >= 1
        assert stats.exhausted == 0
        assert wrong == 0


@pytest.mark.parametrize("design", ["split", "indep-split"])
def test_split_designs_count_recovered_reads(design):
    outcome = run_campaign(faulty_spec(design, seed=1, stuck_cells=0))
    assert outcome.resilience["detections"] >= 1
    assert outcome.resilience["exhausted"] == 0
    assert outcome.resilience["recovered_reads"] >= 1


#: sha256 of ``run_campaign(spec).canonical_json()``: one zero-fault spec
#: per design, and one stuck-cell spec per design.  The stuck-cell seeds
#: quarantine a site of the partitioned designs (degraded accesses, lost
#: APPENDs) and end plain Split, which has no site to fail over to, as a
#: terminal after 41 of 48 accesses.
CAMPAIGN_PINS = {
    ("independent", 2018, 0):
        "cc8c7d1302a39db0b43d004e2b90383d76c3bc691fa3dd3bdfc37c548fcaa482",
    ("independent", 4, 1):
        "7bbf5324e4f981c71a666d4339ea4721f92799670dc7902760d9e0d99e01428c",
    ("indep-split", 2018, 0):
        "2e45bb7106ea54f94acf5cbcba0da1ae13a4de1285770fb46cf632af282f7566",
    ("indep-split", 6, 1):
        "b8fcbacb28538a3fab5661aff76aa24b0aabf9a41a2bf40bbc2cf34eb1446d4e",
    ("split", 2018, 0):
        "96db485d1aaeba7e02482e89f5e4355913f1c89ba0cd265f459c4d2e30fa422e",
    ("split", 1, 1):
        "3d16905e9b4739408602cd44a66b0004ef3d0969c9471cc1cc5000cef84110cb",
}

#: sha256 of the link instants the same campaigns trace, in emission
#: order: (name, direction, sdimm, payload_bytes, ts).  The report keeps
#: the link as one count (``link_events``, top-level events only), so
#: only this pin sees a change of command, size or order; for
#: INDEP-SPLIT it also covers the group-internal Split traffic.
CAMPAIGN_LINK_PINS = {
    ("independent", 2018, 0):
        "ba8a64ff1857207fd687bec2422e69a31f3b6de36f42c6105368b3f70bedb0c3",
    ("independent", 4, 1):
        "8cdcf20782aec5f0252237842b171959f8289082b6db03fb149a1c18492045d6",
    ("indep-split", 2018, 0):
        "e3a34bbc12dedf4aaca8a876e5ca3d25bfcfb7aefef0d302aebf4882c4ec96b3",
    ("indep-split", 6, 1):
        "4a5378934dc7817ab839ef5dafb400927e2cab602eaf4dfb68524b827d4965a4",
    ("split", 2018, 0):
        "24b8d71a76967e5ae7ca88eb66da953ad282b50022f52ea10f6047ed2444dbc3",
    ("split", 1, 1):
        "8b10e9dc43a48151702b5fb9482e6651af6138294fa540c1dc767b5ad93b0b33",
}


def pinned_campaign(design, seed, stuck_cells, tracer=NULL_TRACER):
    spec = faulty_spec(design, seed=seed, bit_flips=0, replays=0,
                       stuck_cells=stuck_cells, link_drops=0,
                       link_duplicates=0, link_delays=0, buffer_stalls=0)
    return run_campaign(spec, tracer=tracer)


@pytest.mark.parametrize(
    "design,seed,stuck_cells", list(CAMPAIGN_PINS),
    ids=lambda key: str(key))
def test_campaign_report_bytes_are_pinned(design, seed, stuck_cells):
    outcome = pinned_campaign(design, seed, stuck_cells)
    # A stuck cell quarantines a partitioned design's site; plain Split
    # has no site to give up, so its stuck-cell run ends terminal.
    if design == "split":
        assert bool(outcome.terminal) == bool(stuck_cells)
    else:
        assert bool(outcome.quarantined) == bool(stuck_cells)
    digest = hashlib.sha256(outcome.canonical_json().encode()).hexdigest()
    assert digest == CAMPAIGN_PINS[(design, seed, stuck_cells)]


@pytest.mark.parametrize(
    "design,seed,stuck_cells", list(CAMPAIGN_LINK_PINS),
    ids=lambda key: str(key))
def test_campaign_link_instants_are_pinned(design, seed, stuck_cells):
    tracer = CollectingTracer()
    pinned_campaign(design, seed, stuck_cells, tracer=tracer)
    instants = [(event.name, event.args["direction"], event.args["sdimm"],
                 event.args["payload_bytes"], event.start)
                for event in tracer.events
                if event.kind == "instant" and event.category == CATEGORY_LINK]
    digest = hashlib.sha256(json.dumps(instants).encode()).hexdigest()
    assert digest == CAMPAIGN_LINK_PINS[(design, seed, stuck_cells)]


#: A heavy-fault INDEP-SPLIT campaign and the sha256 of its report.  A
#: group's faults arm only when a real access of that group begins, so 13
#: of its 19 integrity specs stay vacuous; arming on the groups'
#: queue-drain dummy accesses as well would apply a seventh.
DRAIN_CAMPAIGN = CampaignSpec(design="indep-split", accesses=96, levels=7,
                              seed=12, bit_flips=12, replays=6,
                              stuck_cells=1)
DRAIN_CAMPAIGN_PIN = \
    "a9497edce2577f4ec007c1540bdbb18f0107aed1656938d80adb469e508cecb9"


def test_drain_accesses_do_not_arm_faults():
    outcome = run_campaign(DRAIN_CAMPAIGN)
    integrity = outcome.detection["integrity"]
    assert (integrity["scheduled"], integrity["applied"],
            integrity["vacuous"], integrity["detected"]) == (19, 6, 13, 6)
    digest = hashlib.sha256(outcome.canonical_json().encode()).hexdigest()
    assert digest == DRAIN_CAMPAIGN_PIN


class TestSweepAndCache:
    def specs(self):
        return [faulty_spec(design, accesses=24)
                for design in ("independent", "split", "indep-split")]

    def test_cache_key_is_stable_and_plan_sensitive(self, tmp_path):
        spec = faulty_spec("independent")
        other = faulty_spec("independent", seed=7)
        assert campaign_request(spec)["plan_digest"] == \
            spec.build_plan().digest()
        cache = RunCache(str(tmp_path))
        fanout([spec, faulty_spec("independent"), other], lambda _: {},
               jobs=1, cache=cache, key=campaign_request)
        assert cache.entry_count() == 2

    def test_code_change_turns_a_warm_campaign_into_a_miss(
            self, tmp_path, monkeypatch):
        cache = RunCache(str(tmp_path))
        specs = [faulty_spec("independent", accesses=24)]
        run_campaign_sweep(specs, cache=cache)
        run_campaign_sweep(specs, cache=cache)
        assert cache.stats.hits == 1
        monkeypatch.setattr(fingerprint_module, "_cached_fingerprint",
                            "0" * 64)
        run_campaign_sweep(specs, cache=cache)
        assert cache.stats.hits == 1
        assert cache.entry_count() == 2

    def test_serial_and_parallel_sweeps_agree(self):
        serial = run_campaign_sweep(self.specs(), jobs=1)
        parallel = run_campaign_sweep(self.specs(), jobs=2)
        assert [report for report, _ in serial] == \
            [report for report, _ in parallel]

    def test_cache_round_trip(self, tmp_path):
        cache = RunCache(str(tmp_path))
        first = run_campaign_sweep(self.specs(), cache=cache)
        second = run_campaign_sweep(self.specs(), cache=cache)
        fresh = run_campaign_sweep(self.specs(), cache=None)
        assert [meta["from_cache"] for _, meta in first + second] == \
            [False] * len(first) + [True] * len(second)
        assert [report for report, _ in first] == \
            [report for report, _ in second]
        # and a cached result equals a fresh computation
        assert [report for report, _ in second] == \
            [report for report, _ in fresh]
