"""Severity arithmetic against the frozen reference-calculator oracle table."""

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal import cvss
from penheal.model import CvssMetrics

ORACLE = json.loads((Path(__file__).parent / "data" / "cvss_oracle.json").read_text())


def metrics(av="N", ac="L", pr="N", ui="N", scope="U", c="H", i="H", a="H"):
    return CvssMetrics(av=av, ac=ac, pr=pr, ui=ui, scope=scope, c=c, i=i, a=a)


class TestBaseScore:
    def test_no_impact_scores_zero(self):
        assert cvss.base_score(metrics(c="N", i="N", a="N")) == 0.0

    def test_network_full_impact_unchanged_scope(self):
        assert cvss.base_score(metrics()) == 9.8

    def test_low_priv_changed_scope(self):
        assert cvss.base_score(metrics(pr="L", scope="C")) == 9.9

    def test_oracle_table_exact(self):
        start = time.monotonic()
        for entry in ORACLE["entries"]:
            parsed = cvss.parse_vector(entry["vector"])
            assert parsed.base_score == pytest.approx(entry["score"], abs=1e-12), entry[
                "vector"
            ]
        assert time.monotonic() - start < 1.0

    def test_round_up_examples(self):
        assert cvss.round_up_one_decimal(4.02) == 4.1
        assert cvss.round_up_one_decimal(4.0) == 4.0
        assert cvss.round_up_one_decimal(9.760161) == 9.8
        assert cvss.round_up_one_decimal(0.0) == 0.0

    @given(
        st.sampled_from("NALP"),
        st.sampled_from("LH"),
        st.sampled_from("NLH"),
        st.sampled_from("NR"),
        st.sampled_from("UC"),
        st.sampled_from("HLN"),
        st.sampled_from("HLN"),
        st.sampled_from("HLN"),
    )
    @settings(max_examples=100, deadline=None)
    def test_score_in_range_one_decimal(self, av, ac, pr, ui, scope, c, i, a):
        score = cvss.base_score(metrics(av, ac, pr, ui, scope, c, i, a))
        assert 0.0 <= score <= 10.0
        assert round(score * 10) == pytest.approx(score * 10)

    def test_zero_iff_no_impact(self):
        assert cvss.base_score(metrics(c="N", i="N", a="N", scope="C")) == 0.0
        assert cvss.base_score(metrics(c="L", i="N", a="N", av="P", ac="H")) > 0.0


VALID = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"


class TestParseVector:
    def test_valid_31(self):
        parsed = cvss.parse_vector(VALID)
        assert (parsed.av, parsed.scope, parsed.a) == ("N", "U", "H")
        assert parsed.base_score == 9.8

    def test_valid_30_prefix(self):
        assert cvss.parse_vector(VALID.replace("3.1", "3.0")).base_score == 9.8

    def test_case_insensitive(self):
        assert cvss.parse_vector(VALID.lower()).base_score == 9.8

    def test_surrounding_whitespace_ok(self):
        assert cvss.parse_vector(f"  {VALID}  ").base_score == 9.8

    def test_trailing_slash_ok(self):
        assert cvss.parse_vector(VALID + "/").base_score == 9.8

    def test_round_trip_render(self):
        parsed = cvss.parse_vector(VALID)
        assert parsed.vector_string() == VALID

    @pytest.mark.parametrize(
        "vector,fragment",
        [
            ("", "must start with"),
            ("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "must start with"),
            ("CVSS:2.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "must start with"),
            ("CVSS:3.1/", "missing metrics"),
            ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H", "missing metrics: A"),
            ("CVSS:3.1/AC:L/AV:N/PR:N/UI:N/S:U/C:H/I:H/A:H", "order"),
            ("CVSS:3.1/AV:N/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "duplicate"),
            ("CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "invalid value"),
            ("CVSS:3.1/XX:N/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "unknown metric"),
            ("CVSS:3.1/AVN/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "malformed"),
            ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:X/I:H/A:H", "invalid value"),
            ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/E:F", "unknown metric"),
            # upper() folds these lookalikes into ASCII: "ſ" to "S", "ı" to "I"
            ("cvſſ:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "must be ASCII: 'cvſſ:3.1/AV:N"),
            ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/ı:H/A:H", "must be ASCII: 'CVSS:3.1/AV:N"),
        ],
    )
    def test_rejections_name_the_problem(self, vector, fragment):
        with pytest.raises(cvss.VectorParseError) as exc_info:
            cvss.parse_vector(vector)
        assert fragment in str(exc_info.value)

    def test_conservative_default_parses_to_7_3(self):
        assert cvss.parse_vector(cvss.CONSERVATIVE_DEFAULT_VECTOR).base_score == 7.3

    @given(
        st.sampled_from("NALP"),
        st.sampled_from("LH"),
        st.sampled_from("NLH"),
        st.sampled_from("NR"),
        st.sampled_from("UC"),
        st.sampled_from("HLN"),
        st.sampled_from("HLN"),
        st.sampled_from("HLN"),
    )
    @settings(max_examples=60, deadline=None)
    def test_parse_inverts_render(self, av, ac, pr, ui, scope, c, i, a):
        unscored = metrics(av, ac, pr, ui, scope, c, i, a)
        original = unscored._replace(base_score=cvss.base_score(unscored))
        assert cvss.parse_vector(original.vector_string()) == original
