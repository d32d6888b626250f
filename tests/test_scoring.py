"""Benchmark arithmetic: matching, coverage, means, overall aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal.model import CVE_NA, AggregationMode, Recommendation, Vulnerability
from penheal.scoring import (
    detection_coverage,
    format_score_table,
    match_findings,
    overall,
    remediation_cost,
    remediation_effectiveness,
    score_run,
)
from penheal.simulator import ground_truth, load_host_model


def vuln(vuln_id="CVE-NA", service="http", port=80):
    return Vulnerability(id=vuln_id, service=service, port=port)


def rec(value=0.0, cost=0.0):
    return Recommendation(text="x", target_vuln_ids=("k",), cost=cost, value=value)


TRUTH = ground_truth(load_host_model())


# Few distinct ids, services and ports, in several spellings, so rows collide often.
_VULN = st.builds(vuln, st.sampled_from(["CVE-NA", "cve-na", "CVE-2011-2523", "cve-2011-2523",
                                         "CVE-2017-0144"]),
                  st.sampled_from(["http", " HTTP ", "ftp"]), st.sampled_from([None, 21, 80]))


class TestMatching:
    def test_cve_id_match_beats_service_port(self):
        found = [vuln("CVE-2011-2523", "file-transfer", 2121)]  # sloppy metadata
        matched = match_findings(found, TRUTH)
        assert len(matched) == 1
        assert matched[0][1].id == "CVE-2011-2523"

    def test_cve_na_matches_by_service_and_port(self):
        matched = match_findings([vuln("CVE-NA", "http", 80)], TRUTH)
        assert len(matched) == 1
        assert matched[0][1].service == "http"

    def test_each_truth_entry_consumed_once(self):
        found = [vuln("CVE-NA", "http", 80), vuln("CVE-NA", "http", 80)]
        matched = match_findings(found, TRUTH)
        assert len(matched) == 1
        assert matched[0][0] is found[0]  # the first claim takes the one row

    def test_empty_found(self):
        assert match_findings([], TRUTH) == []
        assert len(TRUTH) == 10

    @pytest.mark.parametrize("vuln_id", ["CVE-NA", "cve-na"])
    def test_unnamed_finding_in_any_case_matches_only_its_service_and_port(self, vuln_id):
        assert score_run([vuln(vuln_id, "ssh", 2222)], TRUTH, []).s_d == 0.0
        assert score_run([vuln(vuln_id, "http", 80)], TRUTH, []).s_d == 1.0

    def test_service_comparison_normalized(self):
        assert len(match_findings([vuln("CVE-NA", " HTTP ", 80)], TRUTH)) == 1

    def test_wrong_port_does_not_match(self):
        assert match_findings([vuln("CVE-NA", "http", 8080)], TRUTH) == []

    def test_cve_found_does_not_consume_na_row_by_port(self):
        # A found CVE id unknown to the truth set stays unmatched even if
        # service/port coincide with a CVE-NA truth row.
        assert match_findings([vuln("CVE-2020-1234", "http", 80)], TRUTH) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VULN, max_size=12), st.lists(_VULN, max_size=12))
    def test_same_pairs_as_scanning_the_unconsumed_truth(self, found, truth):
        pairs = [(id(f), id(t)) for f, t in match_findings(found, truth)]
        assert pairs == [(id(f), id(t)) for f, t in _match_by_scan(found, truth)]


def _match_by_scan(found, truth):
    """The reference: each finding, named ids first, takes the first unconsumed truth row it
    matches, found by scanning them all."""
    remaining = list(truth)
    matched = []
    for f in sorted(found, key=lambda f: f.key[0] == CVE_NA):
        if f.key[0] == CVE_NA:
            hit = next((t for t in remaining if t.key == f.key), None)
        else:
            hit = next((t for t in remaining if t.key[0] == f.key[0]), None)
        if hit is not None:
            matched.append((f, hit))
            remaining.remove(hit)
    return matched


class TestCoverage:
    @pytest.mark.parametrize(
        "matched,expected", [(10, 10.0), (6, 6.0), (0, 0.0), (3, 3.0)]
    )
    def test_scale(self, matched, expected):
        found = [
            vuln("CVE-NA", t.service, t.port) for t in TRUTH[:matched]
        ]
        # translate CVE rows properly
        found = [
            vuln(t.id, t.service, t.port) if t.id != "CVE-NA" else vuln("CVE-NA", t.service, t.port)
            for t in TRUTH[:matched]
        ]
        assert detection_coverage(found, TRUTH) == expected

    def test_empty_truth_is_error(self):
        with pytest.raises(ValueError):
            detection_coverage([], [])


class TestMeans:
    def test_effectiveness_mean(self):
        selected = [rec(value=9.0), rec(value=9.0), rec(value=4.8)]
        assert remediation_effectiveness(selected) == pytest.approx(7.6)

    def test_cost_mean(self):
        selected = [rec(cost=2), rec(cost=2), rec(cost=6)]
        assert remediation_cost(selected) == pytest.approx(10.0 / 3.0)

    def test_empty_selection_zeroes(self):
        assert remediation_effectiveness([]) == 0.0
        assert remediation_cost([]) == 0.0

    @given(st.lists(st.floats(min_value=-10, max_value=20), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, values):
        selected = [rec(value=v, cost=abs(v) / 2) for v in values]
        shuffled = list(reversed(selected))
        assert remediation_effectiveness(selected) == pytest.approx(
            remediation_effectiveness(shuffled)
        )
        assert remediation_cost(selected) == pytest.approx(remediation_cost(shuffled))


class TestOverall:
    def test_sum_mode_reference_values(self):
        assert overall(5.67, 7.60, 3.33, AggregationMode.SUM) == pytest.approx(
            9.94, abs=1e-9
        )
        assert overall(2.00, 5.07, 6.13, AggregationMode.SUM) == pytest.approx(
            0.94, abs=1e-9
        )

    def test_divided_mode(self):
        assert overall(2.00, 5.07, 6.13) == pytest.approx(0.94 / 3.0, abs=1e-9)
        assert overall(0, 0, 0) == 0.0
        assert overall(0, 0, 0, AggregationMode.SUM) == 0.0

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0.01, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_strictly_hurts(self, s_d, s_r, c, delta):
        for mode in AggregationMode:
            assert overall(s_d, s_r, c + delta, mode) < overall(s_d, s_r, c, mode)

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_modes_agree_up_to_factor_three(self, s_d, s_r, c):
        assert overall(s_d, s_r, c, AggregationMode.SUM) == pytest.approx(
            3.0 * overall(s_d, s_r, c, AggregationMode.DIVIDED_BY_THREE)
        )


class TestScoreRun:
    def test_full_report(self):
        found = [vuln("CVE-2011-2523", "ftp", 21), vuln("CVE-NA", "http", 80)]
        selected = [rec(value=9.8, cost=2.0), rec(value=8.2, cost=5.0)]
        report = score_run(found, TRUTH, selected, run_id="r1")
        assert report.s_d == 2.0
        assert report.s_r == pytest.approx(9.0)
        assert report.c == pytest.approx(3.5)
        assert report.s_overall == pytest.approx((2.0 + 9.0 - 3.5) / 3.0)
        assert report.found_count == 2 and report.truth_count == 10

    def test_empty_selection_noted(self):
        report = score_run([], TRUTH, [])
        assert report.s_r == 0.0 and report.c == 0.0
        assert any("default to 0" in n for n in report.notes)

    def test_table_rendering(self):
        report = score_run([], TRUTH, [])
        table = format_score_table(report, AggregationMode.DIVIDED_BY_THREE)
        assert "detection" in table and "overall" in table
