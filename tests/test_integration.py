"""End-to-end integration tests: the full reproduction must show the
paper's qualitative findings at test scale."""

from repro.core.classify import InferenceCategory
from repro.core.report import reproduce_paper
from repro.topology.re_config import REEcosystemConfig


class TestHeadlineFindings:
    def test_most_prefixes_always_re(self, reproduction):
        """~81% of responsive prefixes always used the R&E route."""
        for table in (reproduction.table1_surf,
                      reproduction.table1_internet2):
            share = table.row(InferenceCategory.ALWAYS_RE).prefix_share
            assert 0.72 < share < 0.90

    def test_path_length_insensitive_majority(self, reproduction):
        """~88% of prefixes were insensitive to AS path length (always
        R&E plus always commodity)."""
        table = reproduction.table1_internet2
        insensitive = (
            table.row(InferenceCategory.ALWAYS_RE).prefix_share
            + table.row(InferenceCategory.ALWAYS_COMMODITY).prefix_share
        )
        assert insensitive > 0.80

    def test_equal_localpref_minority(self, reproduction):
        """~8-9% switched to R&E when path length favoured it."""
        for table in (reproduction.table1_surf,
                      reproduction.table1_internet2):
            share = table.row(InferenceCategory.SWITCH_TO_RE).prefix_share
            assert 0.03 < share < 0.16

    def test_switch_to_commodity_rare(self, reproduction):
        for table in (reproduction.table1_surf,
                      reproduction.table1_internet2):
            assert table.row(
                InferenceCategory.SWITCH_TO_COMMODITY
            ).prefixes <= 5

    def test_cross_experiment_agreement(self, reproduction):
        assert reproduction.table2.agreement > 0.93

    def test_niks_is_largest_difference_source(self, reproduction):
        table2 = reproduction.table2
        assert table2.niks_attributed > 0
        assert table2.niks_attributed <= table2.different

    def test_congruence_rate(self, reproduction):
        """22 of 25 congruent in the paper; proportionally similar."""
        table3 = reproduction.table3
        assert table3.total_congruent / table3.total > 0.8

    def test_churn_contrast(self, reproduction):
        churn = reproduction.churn_internet2
        assert churn.commodity_phase.updates > 5 * churn.re_phase.updates

    def test_ground_truth_confirms(self, reproduction):
        report = reproduction.ground_truth
        assert report.confirmed >= report.responses - 1

    def test_render_produces_full_report(self, reproduction):
        text = reproduction.render()
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4",
                       "Figure 5", "Figure 8", "Operator ground truth"):
            assert marker in text

    def test_oscillating_small(self, reproduction):
        for table in (reproduction.table1_surf,
                      reproduction.table1_internet2):
            assert table.row(InferenceCategory.OSCILLATING).prefixes <= 8

    def test_mixed_prefix_ratio(self, reproduction):
        """Mixed prefixes show ~2:1 R&E:commodity systems overall."""
        result = reproduction.internet2_result
        re_count = 0
        comm_count = 0
        mixed_prefixes = {
            item.prefix
            for item in reproduction.internet2_inference.inferences.values()
            if item.category is InferenceCategory.MIXED
        }
        for prefix in mixed_prefixes:
            for round_result in result.rounds:
                for response in round_result.responses_of(prefix):
                    if not response.responded:
                        continue
                    if response.interface_kind == "re":
                        re_count += 1
                    else:
                        comm_count += 1
        assert comm_count > 0
        assert 1.2 < re_count / comm_count < 3.5


class TestReproducibility:
    def test_same_seed_same_tables(self):
        config = REEcosystemConfig(scale=0.03)
        a = reproduce_paper(config, seed=77)
        b = reproduce_paper(config, seed=77)
        for row_a, row_b in zip(a.table1_internet2.rows,
                                b.table1_internet2.rows):
            assert row_a.prefixes == row_b.prefixes
            assert row_a.ases == row_b.ases
        assert a.table2.cells == b.table2.cells

    def test_different_seed_different_details(self):
        config = REEcosystemConfig(scale=0.03)
        a = reproduce_paper(config, seed=77)
        b = reproduce_paper(config, seed=78)
        assert (
            a.table1_internet2.total_prefixes
            != b.table1_internet2.total_prefixes
            or a.table2.cells != b.table2.cells
        )
