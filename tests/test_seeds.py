"""Tests for the seed datasets and the §3.2 selection pipeline."""

import pickle

import pytest

from repro.netutil import Prefix
from repro.rng import SeedTree
from repro.seeds import (
    CensysDataset,
    CensysService,
    ISIEntry,
    ISIHistoryDataset,
    ProbeMethod,
    ProbeTarget,
    select_seeds,
)


@pytest.fixture(scope="module")
def datasets(ecosystem):
    tree = SeedTree(99)
    return (
        ISIHistoryDataset.synthesize(ecosystem, tree),
        CensysDataset.synthesize(ecosystem, tree),
    )


class TestISIDataset:
    def test_covers_only_isi_covered_prefixes(self, ecosystem, datasets):
        isi, _ = datasets
        for plan in ecosystem.studied_prefixes():
            assert isi.covers(plan.prefix) == plan.isi_covered

    def test_entries_ranked_by_score(self, ecosystem, datasets):
        isi, _ = datasets
        for prefix in isi.covered_prefixes()[:50]:
            scores = [e.score for e in isi.entries_for(prefix)]
            assert scores == sorted(scores, reverse=True)

    def test_entry_limit(self, datasets):
        isi, _ = datasets
        prefix = isi.covered_prefixes()[0]
        assert len(isi.entries_for(prefix, 2)) <= 2

    def test_contains_stale_entries(self, datasets):
        isi, _ = datasets
        stale = sum(
            1
            for prefix in isi.covered_prefixes()
            for entry in isi.entries_for(prefix)
            if entry.stale
        )
        assert stale > 0

    def test_alive_systems_listed(self, ecosystem, datasets):
        isi, _ = datasets
        for plan in ecosystem.studied_prefixes():
            if not plan.isi_covered:
                continue
            listed = {e.address for e in isi.entries_for(plan.prefix)}
            for system in plan.alive_systems:
                if system.seed_source == "isi":
                    assert system.address in listed

    def test_deterministic(self, ecosystem):
        a = ISIHistoryDataset.synthesize(ecosystem, SeedTree(4))
        b = ISIHistoryDataset.synthesize(ecosystem, SeedTree(4))
        assert a.covered_prefixes() == b.covered_prefixes()


class TestCensysDataset:
    def test_query_counts(self, datasets):
        _, censys = datasets
        prefix = censys.covered_prefixes()[0]
        before = censys.query_count
        censys.query(prefix)
        assert censys.query_count == before + 1

    def test_services_have_valid_protocols(self, datasets):
        _, censys = datasets
        for prefix in censys.covered_prefixes()[:50]:
            for service in censys.query(prefix):
                assert service.protocol in ("tcp", "udp")
                assert 0 < service.port < 65536

    def test_covers_matches_plan(self, ecosystem, datasets):
        _, censys = datasets
        for plan in ecosystem.studied_prefixes():
            assert censys.covers(plan.prefix) == plan.censys_covered


class TestSelection:
    @pytest.fixture(scope="class")
    def seed_plan(self, ecosystem):
        return select_seeds(ecosystem, seed_tree=SeedTree(7))

    def test_covered_prefixes_excluded(self, ecosystem, seed_plan):
        covered = {p.prefix for p in ecosystem.covered_prefixes()}
        assert not covered & set(seed_plan.targets)
        assert seed_plan.funnel.covered_excluded >= len(covered)

    def test_at_most_three_targets(self, seed_plan):
        assert all(len(t) <= 3 for t in seed_plan.targets.values())

    def test_targets_are_alive_systems(self, ecosystem, seed_plan):
        for prefix, targets in seed_plan.targets.items():
            alive = {
                s.address
                for s in ecosystem.prefix_plans[prefix].alive_systems
            }
            for target in targets:
                assert target.address in alive

    def test_methods_match_sources(self, seed_plan):
        for targets in seed_plan.targets.values():
            for target in targets:
                if target.source == "isi":
                    assert target.method is ProbeMethod.ICMP_ECHO
                else:
                    assert target.method in (
                        ProbeMethod.TCP_SYN, ProbeMethod.UDP,
                    )

    def test_funnel_consistency(self, seed_plan):
        funnel = seed_plan.funnel
        assert funnel.isi_covered <= funnel.union_covered
        assert funnel.responsive <= funnel.union_covered
        assert funnel.three_targets <= funnel.responsive
        assert (
            funnel.isi_seeded + funnel.censys_seeded + funnel.mixed_seeded
            == funnel.responsive
        )
        assert funnel.responsive == len(seed_plan.targets)

    def test_funnel_rates_near_paper(self, seed_plan):
        """§3.2: 65.2% ISI, 73.3% union, 68.0% responsive, 82.7% with
        three targets — at test scale allow wide bands."""
        funnel = seed_plan.funnel
        assert 0.55 < funnel.isi_covered / funnel.studied_prefixes < 0.75
        assert 0.63 < funnel.union_covered / funnel.studied_prefixes < 0.83
        assert 0.58 < funnel.responsive / funnel.studied_prefixes < 0.78
        assert 0.72 < funnel.three_targets / funnel.responsive < 0.92

    def test_icmp_seeds_dominate(self, seed_plan):
        """§3.2: ICMP (ISI) seeds were used for ~78% of prefixes."""
        funnel = seed_plan.funnel
        assert funnel.isi_seeded > funnel.censys_seeded

    def test_funnel_rows_render(self, seed_plan):
        rows = seed_plan.funnel.as_rows()
        assert any("responsive" in row for row in rows)

    def test_total_targets(self, seed_plan):
        assert seed_plan.total_targets() == sum(
            len(t) for t in seed_plan.targets.values()
        )

    def test_deterministic(self, ecosystem):
        a = select_seeds(ecosystem, seed_tree=SeedTree(5))
        b = select_seeds(ecosystem, seed_tree=SeedTree(5))
        assert set(a.targets) == set(b.targets)
        for prefix in a.targets:
            assert [t.address for t in a.targets[prefix]] == [
                t.address for t in b.targets[prefix]
            ]


PFX = Prefix.parse("192.0.2.0/24")


@pytest.mark.parametrize("record, fields", [
    (ISIEntry(3232235777, 71, 400), ("address", "score", "last_seen_days")),
    (CensysService(3232235778, 443, "tcp"), ("address", "port", "protocol")),
    (ProbeTarget(3232235779, PFX, ProbeMethod.TCP_SYN, 443, "censys"),
     ("address", "prefix", "method", "port", "source")),
], ids=["isi-entry", "censys-service", "probe-target"])
class TestSeedRecords:
    """The seed records are tuples built positionally by the syntheses
    and select_seeds; they must keep the frozen-dataclass behaviour
    callers see."""

    def test_value_equality(self, record, fields):
        copy = type(record)(*(getattr(record, name) for name in fields))
        assert copy == record and copy is not record
        assert copy != copy._replace(address=1)

    def test_hash_is_the_field_tuple_hash(self, record, fields):
        assert hash(record) == hash(
            tuple(getattr(record, name) for name in fields)
        )

    def test_attributes_cannot_be_assigned(self, record, fields):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_pickle_round_trip(self, record, fields):
        restored = pickle.loads(pickle.dumps(record))
        assert restored == record and type(restored) is type(record)


def test_probe_target_defaults():
    target = ProbeTarget(3232235777, PFX, ProbeMethod.ICMP_ECHO)
    assert (target.port, target.source) == (0, "isi")


def test_isi_entry_staleness():
    assert ISIEntry(1, 10, 366).stale
    assert not ISIEntry(1, 10, 365).stale
