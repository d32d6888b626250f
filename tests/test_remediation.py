"""Remediation stage: enrichment, advising, evaluation mechanics, selection."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal import cvss
from penheal.gateway import AgentRole, Gateway, ScriptedBackend
from penheal.model import (
    CVE_NA,
    BudgetScope,
    CostPolicy,
    CvssSource,
    Recommendation,
    RecommendationStatus,
    RunConfig,
    Vulnerability,
)
from penheal.nvd import CveNotFound, FixtureNvdClient, LiveNvdClient, NvdError
from penheal.remediation import (
    EvaluationVerdict,
    EvaluatorContext,
    RecommendationGroup,
    RemediationError,
    advise,
    compute_value,
    enrich_findings,
    estimate_vector,
    evaluate,
    format_selection_report,
    parse_evaluation,
    parse_numbered_list,
    remediate,
    select,
)


def gw(scripts):
    return Gateway(ScriptedBackend(scripts))


def finding(vuln_id="CVE-NA", service="http", port=80, score=None):
    metrics = None
    if score is not None:
        metrics = cvss.parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
        metrics = type(metrics)(
            av=metrics.av, ac=metrics.ac, pr=metrics.pr, ui=metrics.ui,
            scope=metrics.scope, c=metrics.c, i=metrics.i, a=metrics.a,
            base_score=score,
        )
    return Vulnerability(
        id=vuln_id, service=service, port=port, description="d", cvss=metrics,
        cvss_source=CvssSource.ESTIMATED if metrics else CvssSource.UNSET,
    )


class TestLookup:
    def test_bundled_record_score_recomputes(self):
        record = FixtureNvdClient().lookup("CVE-2011-2523")
        assert record.metrics.base_score == 9.8
        assert cvss.parse_vector(record.vector_string) == record.metrics
        assert "backdoor" in record.description

    def test_cve_na_rejected(self):
        with pytest.raises(ValueError):
            FixtureNvdClient().lookup("CVE-NA")

    def test_unknown_well_formed_id_not_found(self):
        with pytest.raises(CveNotFound):
            FixtureNvdClient().lookup("CVE-1999-99999")

    def test_live_client_serves_from_cache_without_network(self, tmp_path, no_network):
        bundled = FixtureNvdClient()._read("CVE-2011-2523")
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "CVE-2011-2523.json").write_text(bundled)
        client = LiveNvdClient(cache_dir=cache, base_url="http://127.0.0.1:9/none")
        record = client.lookup("CVE-2011-2523")
        assert record.metrics.base_score == 9.8

    def test_corrupted_score_rejected(self, tmp_path):
        doc = json.loads(FixtureNvdClient()._read("CVE-2011-2523"))
        doc["vulnerabilities"][0]["cve"]["metrics"]["cvssMetricV31"][0]["cvssData"][
            "baseScore"
        ] = 5.0
        fixture_dir = tmp_path / "nvd"
        fixture_dir.mkdir()
        (fixture_dir / "CVE-2011-2523.json").write_text(json.dumps(doc))
        with pytest.raises(Exception) as exc_info:
            FixtureNvdClient(fixture_dir).lookup("CVE-2011-2523")
        assert "does not match" in str(exc_info.value)


def _bad_vector_record():
    doc = json.loads(FixtureNvdClient()._read("CVE-2011-2523"))
    data = doc["vulnerabilities"][0]["cve"]["metrics"]["cvssMetricV31"][0]["cvssData"]
    data["vectorString"] = "CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
    return json.dumps(doc)


# Record files that are not a readable NVD response, each failing a different step.
UNREADABLE_RECORDS = {
    "not-json": lambda: b"not json",
    "list": lambda: b"[]",
    "non-object-entry": lambda: b'{"vulnerabilities": [5]}',
    "bad-vector": lambda: _bad_vector_record().encode(),
    "not-utf8": lambda: b"\xff\xfe{}",
}


class TestUnreadableRecord:
    @pytest.mark.parametrize("body", UNREADABLE_RECORDS.values(), ids=UNREADABLE_RECORDS)
    def test_fixture_client_raises_nvd_error(self, tmp_path, body):
        (tmp_path / "CVE-2011-2523.json").write_bytes(body())
        with pytest.raises(NvdError, match="CVE-2011-2523"):
            FixtureNvdClient(tmp_path).lookup("CVE-2011-2523")

    @pytest.mark.parametrize("body", UNREADABLE_RECORDS.values(), ids=UNREADABLE_RECORDS)
    def test_live_client_cached_record_raises_nvd_error(self, tmp_path, body, no_network):
        (tmp_path / "CVE-2011-2523.json").write_bytes(body())
        client = LiveNvdClient(cache_dir=tmp_path, base_url="http://127.0.0.1:9/none")
        with pytest.raises(NvdError, match="CVE-2011-2523"):
            client.lookup("CVE-2011-2523")

    def test_enrich_warns_and_estimates(self, tmp_path):
        (tmp_path / "CVE-2011-2523.json").write_text("not json", encoding="utf-8")
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id="CVE-2011-2523", service="ftp", port=21)]
        enriched, warnings = enrich_findings(findings, gateway, FixtureNvdClient(tmp_path))
        assert enriched[0].cvss_source is CvssSource.ESTIMATED
        assert enriched[0].cvss.base_score == 7.3
        assert len(warnings) == 1
        assert warnings[0].startswith("CVE-2011-2523: lookup failed (CVE-2011-2523: unreadable")
        assert warnings[0].endswith("), estimating")


class TestEstimateVector:
    def test_clean_reply_parsed(self):
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"]})
        metrics, warnings = estimate_vector(finding(), "context", gateway)
        assert metrics.base_score == 9.8
        assert not warnings

    def test_lowercase_reply_accepted(self):
        gateway = gw({AgentRole.ESTIMATOR: ["cvss:3.1/av:n/ac:l/pr:n/ui:n/s:u/c:h/i:h/a:h"]})
        metrics, _ = estimate_vector(finding(), "", gateway)
        assert metrics.base_score == 9.8

    def test_vector_embedded_in_prose(self):
        gateway = gw(
            {
                AgentRole.ESTIMATOR: [
                    "Based on the data the vector is "
                    "CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"
                ]
            }
        )
        metrics, _ = estimate_vector(finding(), "", gateway)
        assert metrics.base_score == 8.1

    def test_retry_once_then_succeed(self):
        gateway = gw(
            {
                AgentRole.ESTIMATOR: [
                    "severity seems high",
                    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
                ]
            }
        )
        metrics, warnings = estimate_vector(finding(), "", gateway)
        assert metrics.base_score == 9.8
        assert len(warnings) == 1

    def test_garbage_twice_applies_conservative_default(self):
        gateway = gw({AgentRole.ESTIMATOR: ["nope", "still nope"]})
        metrics, warnings = estimate_vector(finding(), "", gateway)
        assert metrics.base_score == 7.3  # the documented default vector
        assert any("default" in w for w in warnings)


class TestEnrich:
    def test_cve_via_lookup_and_na_via_estimator(self):
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:L/A:N"]})
        findings = [
            Vulnerability(id="CVE-2011-2523", service="ftp", port=21),
            Vulnerability(id="CVE-NA", service="http", port=80, description="sqli"),
        ]
        enriched, warnings = enrich_findings(findings, gateway)
        assert enriched[0].cvss_source is CvssSource.NVD_LOOKUP
        assert enriched[0].cvss.base_score == 9.8
        assert enriched[1].cvss_source is CvssSource.ESTIMATED
        assert enriched[1].cvss.base_score == 8.2

    def test_lookup_miss_falls_back_to_estimator(self):
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id="CVE-1999-99999", service="x", port=1)]
        enriched, warnings = enrich_findings(findings, gateway)
        assert enriched[0].cvss_source is CvssSource.ESTIMATED
        assert any("not in the CVE database" in w for w in warnings)


class TestAdvise:
    def test_numbered_list_parsed_into_group(self):
        reply = (
            "1. Update Samba using the distribution package manager\n"
            "2. Perform regular security audits of the SMB tier\n"
            "3. Shut down the Samba service\n"
            "4. Configure firewall rules restricting ports 139 and 445"
        )
        gateway = gw({AgentRole.ADVISOR: [reply]})
        groups, warnings = advise([finding("CVE-NA", "samba", 445, score=9.0)], gateway)
        assert len(groups) == 1
        texts = [c.text for c in groups[0].candidates]
        assert len(texts) == 4
        assert texts[0].startswith("Update Samba")
        assert texts[2].startswith("Shut down")
        assert all(
            c.target_vuln_ids == ("CVE-NA@samba:445",) for c in groups[0].candidates
        )

    def test_single_item_singleton_group(self):
        gateway = gw({AgentRole.ADVISOR: ["1. Apply the vendor patch"]})
        groups, _ = advise([finding(score=8.0)], gateway)
        assert len(groups[0].candidates) == 1

    def test_continuation_lines_joined(self):
        assert parse_numbered_list("1. first part\n   continued here\n2. second") == [
            "first part continued here",
            "second",
        ]

    def test_unparseable_twice_drops_group(self):
        gateway = gw({AgentRole.ADVISOR: ["no list", "still no list"]})
        groups, warnings = advise([finding(score=8.0)], gateway)
        assert groups == []
        assert any("dropped" in w for w in warnings)

    def test_empty_findings_rejected(self):
        with pytest.raises(RemediationError):
            advise([], gw({}))


class TestParseEvaluation:
    def test_full_and_tier(self):
        verdict = parse_evaluation("effect: full\ncost: low", CostPolicy())
        assert verdict.effect_class == "full"
        assert verdict.cost == 2.0

    def test_partial_with_percent(self):
        verdict = parse_evaluation("effect: partial 40%\ncost: moderate", CostPolicy())
        assert (verdict.effect_class, verdict.k, verdict.cost) == ("partial", 40.0, 5.0)

    def test_negative(self):
        verdict = parse_evaluation("effect: negative 25\ncost: high", CostPolicy())
        assert (verdict.effect_class, verdict.k, verdict.cost) == ("negative", 25.0, 10.0)

    def test_explicit_numeric_cost(self):
        verdict = parse_evaluation("effect: zero\ncost: 3.5", CostPolicy())
        assert verdict.cost == 3.5

    def test_numeric_cost_clamped(self):
        assert parse_evaluation("effect: zero\ncost: 15", CostPolicy()).cost == 10.0

    def test_targets_line(self):
        verdict = parse_evaluation(
            "effect: full\ncost: low\ntargets: CVE-2011-2523@ftp:21, CVE-NA@http:80",
            CostPolicy(),
        )
        assert verdict.extra_target_keys == ("CVE-2011-2523@ftp:21", "CVE-NA@http:80")

    def test_unparseable_raises(self):
        with pytest.raises(RemediationError):
            parse_evaluation("I think it is quite effective.", CostPolicy())

    def test_case_insensitive(self):
        verdict = parse_evaluation("Effect: FULL\nCost: LOW", CostPolicy())
        assert verdict.effect_class == "full"


class TestComputeValue:
    def test_full_single(self):
        verdict = EvaluationVerdict("full", 0.0, 2.0)
        assert compute_value(verdict, [9.0]) == 9.0

    def test_zero_for_irrelevant(self):
        assert compute_value(EvaluationVerdict("zero", 0.0, 2.0), [9.0]) == 0.0

    def test_sum_rule(self):
        assert compute_value(EvaluationVerdict("full", 0.0, 2.0), [9.8, 7.5]) == 17.3

    def test_partial_percentage(self):
        assert compute_value(EvaluationVerdict("partial", 40.0, 2.0), [10.0]) == 4.0

    def test_negative_percentage(self):
        assert compute_value(EvaluationVerdict("negative", 50.0, 2.0), [8.0]) == -4.0

    @given(
        st.sampled_from(["full", "partial", "zero", "negative"]),
        st.floats(min_value=0.0, max_value=100.0),
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_value_bounds(self, effect_class, k, scores):
        value = compute_value(EvaluationVerdict(effect_class, k, 2.0), scores)
        total = sum(scores)
        assert -total - 1e-6 <= value <= total + 1e-6
        if effect_class == "zero":
            assert value == 0.0
        if effect_class == "negative":
            assert value <= 0.0


class TestEvaluate:
    def test_full_fix_of_9_0_scores_9_0(self):
        target = finding("CVE-NA", "samba", 445, score=9.0)
        rec = Recommendation(text="Update Samba now", target_vuln_ids=(target.key_str,))
        gateway = gw({AgentRole.EVALUATOR: ["effect: full\ncost: low"]})
        scored, warnings = evaluate(rec, [target], CostPolicy(), gateway)
        assert scored.value == 9.0
        assert scored.cost == 2.0
        assert not warnings

    def test_zero_for_misdirected_fix(self):
        target = finding(score=9.0)
        rec = Recommendation(text="Change user passwords", target_vuln_ids=(target.key_str,))
        gateway = gw({AgentRole.EVALUATOR: ["effect: zero\ncost: low"]})
        scored, _ = evaluate(rec, [target], CostPolicy(), gateway)
        assert scored.value == 0.0

    def test_multi_target_sum(self):
        a = finding("CVE-NA", "a-svc", 1, score=9.8)
        b = finding("CVE-NA", "b-svc", 2, score=7.5)
        rec = Recommendation(text="Harden everything", target_vuln_ids=(a.key_str,))
        gateway = gw(
            {AgentRole.EVALUATOR: [f"effect: full\ncost: moderate\ntargets: {b.key_str}"]}
        )
        scored, _ = evaluate(rec, [a, b], CostPolicy(), gateway)
        assert scored.value == 17.3
        assert set(scored.target_vuln_ids) == {a.key_str, b.key_str}

    def test_unknown_target_warned_and_ignored(self):
        a = finding(score=5.0)
        rec = Recommendation(text="x", target_vuln_ids=(a.key_str,))
        gateway = gw(
            {AgentRole.EVALUATOR: ["effect: full\ncost: low\ntargets: CVE-0000-0000@x:1"]}
        )
        scored, warnings = evaluate(rec, [a], CostPolicy(), gateway)
        assert scored.value == 5.0
        assert any("unknown target" in w for w in warnings)

    def test_unparseable_twice_conservative_default(self):
        a = finding(score=5.0)
        rec = Recommendation(text="x", target_vuln_ids=(a.key_str,))
        gateway = gw({AgentRole.EVALUATOR: ["mumble", "mumble again"]})
        scored, warnings = evaluate(rec, [a], CostPolicy(), gateway)
        assert scored.value == 0.0
        assert scored.cost == 5.0  # moderate tier
        assert warnings

    def test_user_preference_forwarded_to_prompt(self):
        a = finding(score=5.0)
        policy = CostPolicy(user_preference_text="downtime is unacceptable")
        rec = Recommendation(text="x", target_vuln_ids=(a.key_str,))
        backend = ScriptedBackend({AgentRole.EVALUATOR: ["effect: full\ncost: low"]})
        gateway = Gateway(backend)
        evaluate(rec, [a], policy, gateway)
        system_text = gateway.transcript.exchanges[0].messages[0].content
        assert "downtime is unacceptable" in system_text


def linear_resolve(keys, findings):
    """Reference target resolution: scan for the first key match, then the first id match."""
    resolved, unknown = [], []
    for key in keys:
        match = next((f for f in findings if f.key_str == key), None)
        if match is None:
            match = next(
                (f for f in findings if f.id.upper() == key.upper() and f.id != CVE_NA), None
            )
        if match is None:
            unknown.append(key)
        elif match not in resolved:
            resolved.append(match)
    return resolved, unknown


IDS = ["CVE-2011-2523", "cve-2011-2523", "CVE-2010-2075", CVE_NA, "cve-na"]
loose_findings = st.lists(
    st.builds(
        Vulnerability,
        id=st.sampled_from(IDS),
        service=st.sampled_from(["ftp", "FTP ", "http", "Ftp"]),
        port=st.sampled_from([21, 80, None]),
        description=st.sampled_from(["", "d"]),
    ),
    max_size=8,
)


class TestEvaluatorContext:
    @given(loose_findings, st.data())
    @settings(max_examples=200, deadline=None)
    def test_resolve_matches_linear_scan(self, findings, data):
        names = IDS + ["CVE-0000-0000@x:1", "cve-2011-2523@ftp:21", "ftp"]
        names += [f.key_str for f in findings] + [f.id.lower() for f in findings]
        keys = data.draw(st.lists(st.sampled_from(names), max_size=10))
        got = EvaluatorContext(findings, CostPolicy()).resolve(keys)
        expected = linear_resolve(keys, findings)
        assert got == expected
        # Identity, not only equality: the first matching finding is the one returned.
        assert [id(f) for f in got[0]] == [id(f) for f in expected[0]]


def scored_rec(text, key, cost, value):
    return Recommendation(text=text, target_vuln_ids=(key,), cost=cost, value=value)


class TestSelect:
    def test_empty_selection(self):
        result = select([], 10.0)
        assert result.selected == ()
        assert result.total_value == 0.0

    def test_narrowing_example(self):
        # Four candidates for one finding, budget 3: a cheap full fix is
        # adopted, the audit and the shutdown are discarded.
        group = RecommendationGroup(
            vuln_key="CVE-NA@samba:445",
            candidates=(
                scored_rec("Update Samba using the package manager", "CVE-NA@samba:445", 2.0, 9.0),
                scored_rec("Perform regular security audits", "CVE-NA@samba:445", 2.0, 3.0),
                scored_rec("Shut down the Samba service", "CVE-NA@samba:445", 10.0, 9.0),
                scored_rec("Configure firewall rules", "CVE-NA@samba:445", 2.0, 9.0),
            ),
        )
        result = select([group], 3.0)
        statuses = {c.text.split()[0]: c.status for c in result.groups[0].candidates}
        adopted = [c for c in result.groups[0].candidates if c.status is RecommendationStatus.ADOPTED]
        assert len(adopted) == 1
        assert adopted[0].text.startswith(("Update", "Configure"))
        assert statuses["Perform"] is RecommendationStatus.DISCARDED
        assert statuses["Shut"] is RecommendationStatus.DISCARDED

    def test_group_exclusivity(self):
        groups = [
            RecommendationGroup(
                vuln_key=f"CVE-NA@svc{i}:{i}",
                candidates=(
                    scored_rec(f"fix {i}a", f"CVE-NA@svc{i}:{i}", 2.0, 5.0),
                    scored_rec(f"fix {i}b", f"CVE-NA@svc{i}:{i}", 2.0, 6.0),
                ),
            )
            for i in range(3)
        ]
        result = select(groups, 100.0)
        for group in result.groups:
            assert sum(1 for c in group.candidates if c.status is RecommendationStatus.ADOPTED) <= 1
        assert result.total_value == 18.0

    def test_statuses_settled_for_every_candidate(self):
        group = RecommendationGroup(
            vuln_key="k",
            candidates=(scored_rec("a", "k", 2.0, 1.0), scored_rec("b", "k", 2.0, 0.0)),
        )
        result = select([group], 10.0)
        assert all(
            c.status is not RecommendationStatus.PROPOSED
            for g in result.groups
            for c in g.candidates
        )


class TestRemediate:
    def test_no_findings(self):
        result = remediate([], RunConfig(target_address="t"), gw({}))
        assert result.groups == [] and result.selected == []
        assert any("nothing to remediate" in w for w in result.warnings)

    def test_budget_is_per_vuln_times_findings(self):
        gateway = gw(
            {
                AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"],
                AgentRole.ADVISOR: ["1. Patch the daemon"],
                AgentRole.EVALUATOR: ["effect: full\ncost: low"],
            }
        )
        config = RunConfig(target_address="t", budget_per_vuln=4.0)
        result = remediate([finding()], config, gateway)
        assert result.budget == 4.0
        assert len(result.selected) == 1

    def test_per_vulnerability_budget_scope(self):
        gateway = gw(
            {
                AgentRole.ESTIMATOR: [
                    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
                    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
                ],
                AgentRole.ADVISOR: ["1. Cheap fix\n2. Expensive fix", "1. Costly fix"],
                AgentRole.EVALUATOR: [
                    "effect: partial 50%\ncost: low",
                    "effect: full\ncost: high",
                    "effect: full\ncost: high",
                ],
            }
        )
        config = RunConfig(
            target_address="t",
            budget_per_vuln=4.0,
            budget_scope=BudgetScope.PER_VULNERABILITY,
        )
        findings = [finding(port=80), finding(service="nfs", port=2049)]
        result = remediate(findings, config, gateway)
        # Each group gets its own 4-unit budget: the high-cost full fixes
        # (cost 10) never fit, only the cheap partial fix is adopted.
        assert len(result.selected) == 1
        assert result.selected[0].text == "Cheap fix"

    def test_report_rendering(self):
        group = RecommendationGroup(
            vuln_key="k",
            candidates=(
                scored_rec("Update Samba using the package manager", "k", 2.0, 9.0),
                scored_rec("Shut down the Samba service", "k", 10.0, 9.0),
            ),
        )
        result = select([group], 3.0)
        text = format_selection_report(list(result.groups))
        assert "[Adopted] Update Samba using the package manager" in text
        assert "Cost: 2.0, Value: 9.0" in text
        assert "[Discarded] Shut down the Samba service" in text


class TestLiveNvdRetries:
    def test_rate_limited_then_served(self, tmp_path):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        bundled = FixtureNvdClient()._read("CVE-2011-2523")

        class Handler(BaseHTTPRequestHandler):
            hits = []

            def do_GET(self):
                Handler.hits.append(self.path)
                if len(Handler.hits) == 1:
                    self.send_response(429)
                    self.end_headers()
                    return
                raw = bundled.encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = LiveNvdClient(
                cache_dir=tmp_path / "cache",
                base_url=f"http://127.0.0.1:{server.server_port}/rest",
                backoff=0.01,
            )
            record = client.lookup("CVE-2011-2523")
            assert record.metrics.base_score == 9.8
            assert len(Handler.hits) == 2
            assert "cveId=CVE-2011-2523" in Handler.hits[0]
            # second lookup comes from the disk cache
            client.lookup("CVE-2011-2523")
            assert len(Handler.hits) == 2
        finally:
            server.shutdown()
            server.server_close()
