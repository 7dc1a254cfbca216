"""Determinism and validity of the fuzzer's mutation engine.

The replay contract the whole fuzzer rests on: ``(campaign_seed,
lineage)`` names exactly one schedule.  Mutants must additionally honor
the injector seam — canonical entry order, at least one timed entry, and
never a no-op fault (target already failed when the entry fires).
"""

import pytest

from repro.campaign.schedule import FaultSchedule, redundant_entries
from repro.fuzz.corpus import schedule_fingerprint
from repro.fuzz.mutate import (
    MAX_ENTRIES,
    MUTATION_OPS,
    acceptable,
    canonical,
    derive_mutant_seed,
    mutate,
    rebuild_from_lineage,
    rng_for,
    root_schedule,
    split_lineage,
)


def breed(campaign_seed, depth, salt=0):
    """A chain of ``depth`` successful mutations from a generator root."""
    schedule, lineage = root_schedule(campaign_seed, "random-multi", 0)
    donor, donor_lineage = root_schedule(campaign_seed, "flaky-links", 1)
    steps = []
    while len(steps) < depth:
        bred = mutate(campaign_seed, schedule, lineage, salt,
                      donor=donor, donor_lineage=donor_lineage)
        salt += 1
        if bred is None:
            continue
        schedule, lineage, op = bred
        steps.append((schedule, lineage, op))
    return steps


class TestSeedDerivation:
    def test_rng_for_is_deterministic(self):
        assert (rng_for(0, "g:random-multi:0").random()
                == rng_for(0, "g:random-multi:0").random()
                == pytest.approx(0.963833443171792))

    def test_rng_for_separates_seed_and_lineage(self):
        draws = {rng_for(seed, lineage).random()
                 for seed in (0, 1, 2)
                 for lineage in ("g:a:0", "g:a:1", "g:a:0/m0:add")}
        assert len(draws) == 9

    def test_derive_mutant_seed_golden_values(self):
        """BLAKE2b-derived, must never change — recorded corpora and
        printed repro commands reference machine seeds by them."""
        assert derive_mutant_seed(0, "g:random-multi:0") \
            == 5951196366663144337
        assert derive_mutant_seed(7, "g:flaky-links:2/m5:add") \
            == 2602257421219396936

    def test_derive_mutant_seed_fits_63_bits(self):
        for salt in range(30):
            seed = derive_mutant_seed(3, "g:random-multi:%d" % salt)
            assert 0 <= seed < 2 ** 63


class TestRoots:
    def test_root_schedule_is_deterministic(self):
        sched_a, lin_a = root_schedule(5, "fault-during-recovery", 2)
        sched_b, lin_b = root_schedule(5, "fault-during-recovery", 2)
        assert lin_a == lin_b == "g:fault-during-recovery:2"
        assert sched_a.to_dict() == sched_b.to_dict()

    def test_distinct_salts_vary_the_schedule(self):
        dicts = {str(root_schedule(0, "random-multi", salt)[0].to_dict())
                 for salt in range(8)}
        assert len(dicts) > 1


class TestMutate:
    def test_same_inputs_same_mutant(self):
        parent, lineage = root_schedule(0, "random-multi", 0)
        donor, donor_lineage = root_schedule(0, "flaky-links", 1)
        for salt in range(12):
            bred_a = mutate(0, parent, lineage, salt,
                            donor=donor, donor_lineage=donor_lineage)
            bred_b = mutate(0, parent, lineage, salt,
                            donor=donor, donor_lineage=donor_lineage)
            if bred_a is None:
                assert bred_b is None
                continue
            assert bred_a[1] == bred_b[1]
            assert bred_a[2] == bred_b[2]
            assert bred_a[0].to_dict() == bred_b[0].to_dict()

    def test_every_mutant_honors_the_injector_seam(self):
        """The satellite rule: no schedule the fuzzer runs may contain a
        fault entry that the injector would skip as a no-op."""
        for schedule, _lineage, _op in breed(0, 10):
            assert acceptable(schedule)
            assert not redundant_entries(schedule)
            assert 1 <= len(schedule.entries) <= MAX_ENTRIES
            assert any(entry.phase is None for entry in schedule.entries)

    def test_mutants_survive_schedule_round_trip(self):
        for schedule, _lineage, _op in breed(3, 6):
            data = schedule.to_dict()
            assert FaultSchedule.from_dict(data).to_dict() == data

    def test_all_ops_reachable(self):
        ops = {op for _sched, _lin, op in breed(1, 40)}
        # Not every op fires in any finite sample, but the chooser must
        # spread across most of the table rather than collapse to one.
        assert len(ops) >= 5
        assert ops <= {name for name, _fn in MUTATION_OPS}


class TestLineageRebuild:
    @pytest.mark.parametrize("campaign_seed", [0, 7])
    def test_rediscovers_mutation_chain(self, campaign_seed):
        """Golden property: rebuilding from the lineage string alone
        reproduces every intermediate mutant bit-for-bit."""
        for schedule, lineage, _op in breed(campaign_seed, 4):
            rebuilt = rebuild_from_lineage(campaign_seed, lineage)
            assert rebuilt.to_dict() == schedule.to_dict(), lineage

    def test_rebuilds_roots(self):
        schedule, lineage = root_schedule(0, "false-alarm-storm", 3)
        assert rebuild_from_lineage(0, lineage).to_dict() \
            == schedule.to_dict()

    def test_splice_embeds_donor_lineage(self):
        parent, lineage = root_schedule(0, "random-multi", 0)
        donor, donor_lineage = root_schedule(0, "flaky-links", 1)
        # salt 23 selects splice under campaign seed 0 (golden; if the
        # op table changes this test must be re-anchored).
        bred = mutate(0, parent, lineage, 23,
                      donor=donor, donor_lineage=donor_lineage)
        assert bred is not None and bred[2] == "splice"
        assert bred[1] == "g:random-multi:0/m23:splice(g:flaky-links:1)"
        assert rebuild_from_lineage(0, bred[1]).to_dict() \
            == bred[0].to_dict()

    def test_split_lineage_protects_parenthesized_donors(self):
        lineage = ("g:a:0/m1:splice(g:b:1/m0:add)/m2:move"
                   "/m3:splice(g:c:2/m4:splice(g:d:3))")
        assert split_lineage(lineage) == [
            "g:a:0",
            "m1:splice(g:b:1/m0:add)",
            "m2:move",
            "m3:splice(g:c:2/m4:splice(g:d:3))",
        ]

    @pytest.mark.parametrize("lineage", [
        "nonsense",
        "g:random-multi",
        "g:no-such-generator:0",
        "g:random-multi:0/x3:add",
        "g:random-multi:0/m3:warp",
    ])
    def test_malformed_lineage_raises(self, lineage):
        with pytest.raises((ValueError, KeyError)):
            rebuild_from_lineage(0, lineage)


class TestCanonicalAndFingerprint:
    def test_fingerprint_ignores_name(self):
        schedule, _lineage = root_schedule(0, "random-multi", 0)
        renamed = schedule.replace(name="something-else")
        assert schedule_fingerprint(renamed) \
            == schedule_fingerprint(schedule)

    def test_fingerprint_ignores_entry_permutation(self):
        schedule, _lineage = root_schedule(0, "random-multi", 2)
        if len(schedule.entries) < 2:
            pytest.skip("root drew a single-entry schedule")
        permuted = schedule.replace(
            entries=tuple(reversed(schedule.entries)))
        assert schedule_fingerprint(canonical(permuted)) \
            == schedule_fingerprint(canonical(schedule))

    def test_canonical_orders_timed_before_phase_armed(self):
        for schedule, _lineage, _op in breed(2, 8):
            saw_phase = False
            for entry in schedule.entries:
                if entry.phase is not None:
                    saw_phase = True
                else:
                    assert not saw_phase, "timed entry after phase-armed"

    def test_acceptable_rejects_empty_and_phase_only(self):
        schedule, _lineage = root_schedule(0, "random-multi", 0)
        assert not acceptable(schedule.replace(entries=()))
        timed = [e for e in schedule.entries if e.phase is None]
        if timed:
            import dataclasses
            phase_only = schedule.replace(entries=tuple(
                dataclasses.replace(e, time=0.0, phase="P1")
                for e in schedule.entries))
            assert not acceptable(phase_only)
