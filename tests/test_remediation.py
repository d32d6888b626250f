"""Remediation stage: enrichment, advising, evaluation mechanics, selection."""

import json
import math
import os
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal import cvss, nvd
from penheal.backends import NVD_API_KEY_ENV, LiveNvdClient
from penheal.engine import MAX_SERVICE_CHARS, parse_extractor_blocks
from penheal.gateway import AgentRole, Gateway, ScriptedBackend, load_transcript
from penheal.knapsack import COST_SCALE, solve_group_knapsack
from penheal.model import (
    CVE_NA,
    CostPolicy,
    CvssSource,
    Recommendation,
    RecommendationStatus,
    RunConfig,
    Vulnerability,
    dedupe_findings,
)
from penheal.nvd import CveNotFound, FixtureNvdClient, NvdError
from penheal.remediation import (
    EvaluationVerdict,
    EvaluatorContext,
    RecommendationGroup,
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
from penheal.prompts import format_vulns_inline


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
        doc = json.loads(FixtureNvdClient()._read("CVE-2011-2523"))
        data = doc["vulnerabilities"][0]["cve"]["metrics"]["cvssMetricV31"][0]["cvssData"]
        assert record.metrics.base_score == 9.8
        assert cvss.parse_vector(data["vectorString"]) == record.metrics
        assert "backdoor" in record.description

    def test_cve_na_rejected(self):
        with pytest.raises(ValueError):
            FixtureNvdClient().lookup("CVE-NA")

    def test_unknown_well_formed_id_not_found(self):
        with pytest.raises(CveNotFound):
            FixtureNvdClient().lookup("CVE-1999-99999")

    def test_record_listing_no_vulnerability_is_not_found(self, tmp_path):
        (tmp_path / "CVE-2011-2523.json").write_text('{"vulnerabilities": []}')
        with pytest.raises(CveNotFound, match="CVE-2011-2523"):
            FixtureNvdClient(tmp_path).lookup("CVE-2011-2523")

    def test_record_without_v3_metrics_names_the_cve(self, tmp_path):
        doc = json.loads(FixtureNvdClient()._read("CVE-2011-2523"))
        metrics = doc["vulnerabilities"][0]["cve"]["metrics"]
        metrics.pop("cvssMetricV31", None)
        metrics.pop("cvssMetricV30", None)
        (tmp_path / "CVE-2011-2523.json").write_text(json.dumps(doc))
        with pytest.raises(NvdError) as exc_info:
            FixtureNvdClient(tmp_path).lookup("CVE-2011-2523")
        assert str(exc_info.value) == "CVE-2011-2523: record carries no v3.x vector string"

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

    @pytest.mark.parametrize("stored", [math.nan, math.inf], ids=["nan", "infinity"])
    def test_stored_score_that_is_not_finite_is_rejected(self, tmp_path, stored):
        """No difference from NaN exceeds a tolerance, so NaN must fail the check another way."""
        doc = json.loads(FixtureNvdClient()._read("CVE-2011-2523"))
        doc["vulnerabilities"][0]["cve"]["metrics"]["cvssMetricV31"][0]["cvssData"][
            "baseScore"
        ] = stored
        (tmp_path / "CVE-2011-2523.json").write_text(json.dumps(doc))  # NaN or Infinity
        with pytest.raises(NvdError) as exc_info:
            FixtureNvdClient(tmp_path).lookup("CVE-2011-2523")
        assert str(exc_info.value) == (f"CVE-2011-2523: stored base score {stored} does not "
                                       f"match recomputed 9.8")

    def test_interrupted_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A cache file is whole or absent: never a truncated record read on every later run."""
        text = FixtureNvdClient()._read("CVE-2011-2523")
        client = LiveNvdClient(cache_dir=tmp_path, base_url="http://127.0.0.1:9/none")
        monkeypatch.setattr(client, "_fetch", lambda cve_id: text)
        write_text = Path.write_text

        def interrupted(path, data, *args, **kwargs):
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", interrupted)
        with pytest.raises(NvdError, match="No space left"):
            client.lookup("CVE-2011-2523")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(Path, "write_text", write_text)
        assert client.lookup("CVE-2011-2523").metrics.base_score == 9.8
        assert [p.name for p in tmp_path.iterdir()] == ["CVE-2011-2523.json"]

    @pytest.mark.parametrize("module, name", [(tempfile, "mkstemp"), (Path, "write_text"),
                                              (os, "replace")])
    def test_failed_cache_write_falls_back_to_the_estimator(self, tmp_path, monkeypatch,
                                                            module, name):
        text = FixtureNvdClient()._read("CVE-2011-2523")
        client = LiveNvdClient(cache_dir=tmp_path, base_url="http://127.0.0.1:9/none")
        monkeypatch.setattr(client, "_fetch", lambda cve_id: text)

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(module, name, disk_full)
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id="CVE-2011-2523", service="ftp", port=21)]
        enriched, warnings = enrich_findings(findings, gateway, client)
        assert warnings == [f"CVE-2011-2523: lookup failed (cannot cache CVE-2011-2523 in "
                            f"{tmp_path}: [Errno 28] No space left on device), estimating"]
        assert enriched[0].cvss_source is CvssSource.ESTIMATED
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("live", [False, True], ids=["fixture", "live-cache"])
    def test_unreadable_record_falls_back_to_the_estimator(self, tmp_path, monkeypatch,
                                                          no_network, live):
        # Root opens any file whatever its mode, so the record's one open fails by patch.
        (tmp_path / "CVE-2011-2523.json").write_text(FixtureNvdClient()._read("CVE-2011-2523"))
        client = (LiveNvdClient(cache_dir=tmp_path, base_url="http://127.0.0.1:9/none")
                  if live else FixtureNvdClient(tmp_path))

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(nvd, "open", denied, raising=False)
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id="CVE-2011-2523", service="ftp", port=21)]
        enriched, warnings = enrich_findings(findings, gateway, client)
        assert warnings == ["CVE-2011-2523: lookup failed (CVE-2011-2523: unreadable record: "
                            "PermissionError: [Errno 13] Permission denied), estimating"]
        assert enriched[0].cvss_source is CvssSource.ESTIMATED


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


# Record paths that hold no record: a lookup misses there, as where there is no file.
NO_RECORD_PATHS = {
    "directory": lambda path: path.mkdir(),
    "dangling-link": lambda path: path.symlink_to(path.with_name("gone.json")),
    "link-to-a-device": lambda path: path.symlink_to(os.devnull),  # a character device
}


class TestRecordPath:
    @pytest.mark.parametrize("make", NO_RECORD_PATHS.values(), ids=NO_RECORD_PATHS)
    @pytest.mark.parametrize("live", [False, True], ids=["fixture", "live-cache"])
    def test_path_without_a_record_is_not_found(self, tmp_path, nvd_stub, make, live):
        live_client, stub = nvd_stub
        cache = live_client.fixture_dir
        client = live_client if live else FixtureNvdClient(cache)
        make(cache / "CVE-2011-2523.json")
        stub.statuses = [404]
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id="CVE-2011-2523", service="ftp", port=21)]
        enriched, warnings = enrich_findings(findings, gateway, client)
        assert warnings == ["CVE-2011-2523: not in the CVE database, estimating"]
        assert enriched[0].cvss_source is CvssSource.ESTIMATED
        assert len(stub.hits) == live  # the live client asks NVD, which has none either

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    @pytest.mark.parametrize("live", [False, True], ids=["fixture", "live-cache"])
    def test_fifo_is_no_record_and_waits_for_no_writer(self, nvd_stub, live):
        live_client, stub = nvd_stub
        client = live_client if live else FixtureNvdClient(live_client.fixture_dir)
        fifo = live_client.fixture_dir / "CVE-2011-2523.json"
        os.mkfifo(fifo)
        stub.statuses = [404]
        raised = []
        thread = threading.Thread(target=lambda: raised.append(pytest.raises(
            CveNotFound, client.lookup, "CVE-2011-2523")), daemon=True)
        thread.start()
        thread.join(5)
        if thread.is_alive():  # blocked opening the FIFO: a writer's open and close release it
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
            thread.join(5)
            pytest.fail("the lookup waited for a writer to open the FIFO")
        assert len(raised) == 1  # the lookup raised CveNotFound
        assert len(stub.hits) == live  # the live client asks NVD, which has none either

    @pytest.mark.parametrize("live", [False, True], ids=["fixture", "live-cache"])
    def test_record_that_is_not_utf8_is_unreadable(self, tmp_path, no_network, live):
        (tmp_path / "CVE-2011-2523.json").write_bytes(b'{"vulnerabilities": "\xff"}')
        client = (LiveNvdClient(cache_dir=tmp_path, base_url="http://127.0.0.1:9/none")
                  if live else FixtureNvdClient(tmp_path))
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id="CVE-2011-2523", service="ftp", port=21)]
        enriched, warnings = enrich_findings(findings, gateway, client)
        assert warnings == ["CVE-2011-2523: lookup failed (CVE-2011-2523: unreadable record: "
                            "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in "
                            "position 21: invalid start byte), estimating"]
        assert enriched[0].cvss_source is CvssSource.ESTIMATED


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

    @pytest.mark.parametrize("prose", ["Vector für Straße: ", "ﬁx: "], ids=["sharp-s", "fi"])
    def test_vector_after_a_letter_that_upper_widens(self, prose):
        """"ß".upper() is "SS" and "ﬁ".upper() is "FI", so the vector is found in the line itself."""
        gateway = gw({AgentRole.ESTIMATOR: [prose + "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"]})
        metrics, warnings = estimate_vector(finding(), "", gateway)
        assert (metrics.base_score, warnings, len(gateway.backend.calls)) == (9.8, [], 1)

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

    @staticmethod
    def recording_gateway(sent):
        """A gateway whose Estimator replies twice with no vector, appending each task turn
        it is sent to ``sent``."""

        class Recording(ScriptedBackend):
            def complete(self, role, model, messages):
                sent.append(messages[1].content)
                return super().complete(role, model, messages)

        return Gateway(Recording({AgentRole.ESTIMATOR: ["no vector", "still none"]}))

    def test_long_context_keeps_the_finding_in_both_requests(self):
        """The context is clipped before the light budget would clip the task turn's front."""
        sent = []
        metrics, _ = estimate_vector(finding(), "x" * 20_000, self.recording_gateway(sent))
        assert metrics.base_score == 7.3  # both replies failed: the default vector
        assert len(sent) == 2
        assert all(text.startswith("Vulnerability: CVE-NA on http port 80\n") for text in sent)

    def test_long_service_name_keeps_the_finding_in_both_requests(self):
        """An extractor block's service name is clipped when parsed, so a 20,000-character
        one still leaves the Vulnerability line whole at the front of both requests."""
        (parsed,), warnings = parse_extractor_blocks(
            f"Exploited: CVE-NA\nservice: {'h' * 20_000}\nport: 80\ndescription: a long banner")
        assert len(warnings) == 1
        sent = []
        estimate_vector(parsed, parsed.description, self.recording_gateway(sent))
        line = f"Vulnerability: CVE-NA on {'h' * MAX_SERVICE_CHARS} port 80\n"
        assert len(sent) == 2 and all(text.startswith(line) for text in sent)

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
        enriched, warnings = enrich_findings(findings, gateway, FixtureNvdClient())
        assert enriched[0].cvss_source is CvssSource.NVD_LOOKUP
        assert enriched[0].cvss.base_score == 9.8
        assert enriched[1].cvss_source is CvssSource.ESTIMATED
        assert enriched[1].cvss.base_score == 8.2

    def test_lowercase_cve_id_is_looked_up(self):
        gateway = gw({})  # any model call fails
        findings = [Vulnerability(id="cve-2011-2523", service="ftp", port=21)]
        enriched, warnings = enrich_findings(findings, gateway, FixtureNvdClient())
        assert enriched[0].cvss_source is CvssSource.NVD_LOOKUP
        assert enriched[0].cvss.base_score == 9.8
        assert (gateway.backend.calls, warnings) == ([], [])

    @pytest.mark.parametrize("digits", ["\uff12\uff10\uff11\uff11-\uff12\uff15\uff12\uff13",
                                        "\u0662\u0660\u0661\u0661-\u0662\u0665\u0662\u0663"],
                             ids=["fullwidth", "arabic-indic"])
    def test_non_ascii_digit_id_is_estimated_without_a_lookup(self, digits):
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id=f"CVE-{digits}", service="ftp", port=21)]
        enriched, warnings = enrich_findings(findings, gateway, FixtureNvdClient())
        assert enriched[0].cvss_source is CvssSource.ESTIMATED
        assert warnings == []  # no "not in the CVE database" warning: no id was looked up

    def test_lookup_miss_falls_back_to_estimator(self):
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"]})
        findings = [Vulnerability(id="CVE-1999-99999", service="x", port=1)]
        enriched, warnings = enrich_findings(findings, gateway, FixtureNvdClient())
        assert enriched[0].cvss_source is CvssSource.ESTIMATED
        assert any("not in the CVE database" in w for w in warnings)

    def test_valid_supplied_cvss_is_kept_without_a_model_call(self):
        gateway = gw({})  # any model call fails
        findings = [finding(score=9.8), finding("CVE-2011-2523", "ftp", 21, score=9.8)]
        enriched, warnings = enrich_findings(findings, gateway, FixtureNvdClient())
        assert (enriched, warnings, gateway.backend.calls) == (findings, [], [])

    @pytest.mark.parametrize("bad", [{"base_score": math.nan}, {"av": "Z"}, {"base_score": 55.0}],
                             ids=["nan-score", "unknown-av", "score-past-ten"])
    def test_supplied_cvss_that_is_not_a_scored_vector_is_estimated_anew(self, bad):
        supplied = finding(score=9.8)
        supplied = supplied._replace(cvss=supplied.cvss._replace(**bad))
        gateway = gw({AgentRole.ESTIMATOR: ["CVSS:3.1/AV:L/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"],
                      AgentRole.ADVISOR: ["1. Patch it"],
                      AgentRole.EVALUATOR: ["effect: full\ncost: low"]})
        result = remediate([supplied], RunConfig(target_address="t"), gateway,
                           FixtureNvdClient())
        assert [(c.text, c.value) for c in result.selected] == [("Patch it", 8.4)]
        assert result.warnings == [
            "CVE-NA@http:80: supplied CVSS is not a scored v3.1 vector, enriching anew"]


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

    def test_items_past_the_bound_are_ignored_with_one_warning(self):
        reply = "\n".join(f"{n}. fix {n}" for n in range(1, 11))
        groups, warnings = advise([finding(score=8.0)], gw({AgentRole.ADVISOR: [reply]}))
        assert [c.text for c in groups[0].candidates] == [f"fix {n}" for n in range(1, 9)]
        assert warnings == ["CVE-NA@http:80: 2 advisor item(s) past the first 8 ignored"]

    def test_unparseable_twice_drops_group(self):
        gateway = gw({AgentRole.ADVISOR: ["no list", "still no list"]})
        groups, warnings = advise([finding(score=8.0)], gateway)
        assert groups == []
        assert any("dropped" in w for w in warnings)


class TestParseEvaluation:
    def test_full_and_tier(self):
        verdict = parse_evaluation("effect: full\ncost: low", CostPolicy().tiers())
        assert verdict.effect == 1.0
        assert verdict.cost == 2.0

    def test_partial_with_percent(self):
        verdict = parse_evaluation("effect: partial 40%\ncost: moderate", CostPolicy().tiers())
        assert (verdict.effect, verdict.cost) == (0.4, 5.0)

    def test_negative(self):
        verdict = parse_evaluation("effect: negative 25\ncost: high", CostPolicy().tiers())
        assert (verdict.effect, verdict.cost) == (-0.25, 10.0)

    def test_explicit_numeric_cost(self):
        verdict = parse_evaluation("effect: zero\ncost: 3.5", CostPolicy().tiers())
        assert verdict.cost == 3.5

    def test_numeric_cost_clamped(self):
        assert parse_evaluation("effect: zero\ncost: 15", CostPolicy().tiers()).cost == 10.0

    def test_targets_line(self):
        verdict = parse_evaluation(
            "effect: full\ncost: low\ntargets: CVE-2011-2523@ftp:21, CVE-NA@http:80",
            CostPolicy().tiers(),
        )
        assert verdict.extra_target_keys == ("CVE-2011-2523@ftp:21", "CVE-NA@http:80")

    def test_unparseable_raises(self):
        with pytest.raises(ValueError):
            parse_evaluation("I think it is quite effective.", CostPolicy().tiers())

    def test_case_insensitive(self):
        verdict = parse_evaluation("Effect: FULL\nCost: LOW", CostPolicy().tiers())
        assert (verdict.effect, verdict.cost) == (1.0, 2.0)


def share(effect_class: str, k: float) -> float:
    """The effect parse_evaluation reads from an effect line of ``effect_class`` and ``k``."""
    return {"full": 1.0, "partial": k / 100.0, "zero": 0.0, "negative": -k / 100.0}[effect_class]


class TestComputeValue:
    def test_full_single(self):
        verdict = EvaluationVerdict(1.0, 2.0)
        assert compute_value(verdict, [9.0]) == 9.0

    def test_zero_for_irrelevant(self):
        assert compute_value(EvaluationVerdict(0.0, 2.0), [9.0]) == 0.0

    def test_sum_rule(self):
        assert compute_value(EvaluationVerdict(1.0, 2.0), [9.8, 7.5]) == 17.3

    def test_partial_percentage(self):
        assert compute_value(EvaluationVerdict(0.4, 2.0), [10.0]) == 4.0

    def test_negative_percentage(self):
        assert compute_value(EvaluationVerdict(-0.5, 2.0), [8.0]) == -4.0

    @given(
        st.sampled_from(["full", "partial", "zero", "negative"]),
        st.floats(min_value=0.0, max_value=100.0),
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=9),
    )
    @example("full", 0.0, [98] * 9)  # a float sum of 88.19999999999999
    @settings(max_examples=200, deadline=None)
    def test_value_is_on_the_cent_grid_within_the_exact_sum(self, effect_class, k, tenths):
        """One-decimal scores, as CVSS gives them: the value is what the knapsack reads."""
        value = compute_value(EvaluationVerdict(share(effect_class, k), 2.0),
                              [t / 10 for t in tenths])
        assert round(value, 2) == value
        assert abs(round(value * 100)) <= 10 * sum(tenths)

    @given(
        st.sampled_from(["full", "partial", "zero", "negative"]),
        st.floats(min_value=0.0, max_value=100.0),
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_value_bounds(self, effect_class, k, scores):
        value = compute_value(EvaluationVerdict(share(effect_class, k), 2.0), scores)
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
        scored, warnings = evaluate(rec, EvaluatorContext([target], CostPolicy()), gateway)
        assert scored.value == 9.0
        assert scored.cost == 2.0
        assert not warnings

    def test_zero_for_misdirected_fix(self):
        target = finding(score=9.0)
        rec = Recommendation(text="Change user passwords", target_vuln_ids=(target.key_str,))
        gateway = gw({AgentRole.EVALUATOR: ["effect: zero\ncost: low"]})
        scored, _ = evaluate(rec, EvaluatorContext([target], CostPolicy()), gateway)
        assert scored.value == 0.0

    def test_multi_target_sum(self):
        a = finding("CVE-NA", "a-svc", 1, score=9.8)
        b = finding("CVE-NA", "b-svc", 2, score=7.5)
        rec = Recommendation(text="Harden everything", target_vuln_ids=(a.key_str,))
        gateway = gw(
            {AgentRole.EVALUATOR: [f"effect: full\ncost: moderate\ntargets: {b.key_str}"]}
        )
        scored, _ = evaluate(rec, EvaluatorContext([a, b], CostPolicy()), gateway)
        assert scored.value == 17.3
        assert set(scored.target_vuln_ids) == {a.key_str, b.key_str}

    def test_target_keys_past_the_bound_are_counted_in_one_warning(self):
        findings = [finding("CVE-NA", f"svc{n}", n, score=5.0) for n in range(12)]
        rec = Recommendation(text="Harden everything", target_vuln_ids=(findings[0].key_str,))
        reply = "effect: full\ncost: low\ntargets: " + ", ".join(f.key_str for f in findings[1:])
        scored, warnings = evaluate(rec, EvaluatorContext(findings, CostPolicy()),
                                    gw({AgentRole.EVALUATOR: [reply]}))
        assert scored.target_vuln_ids == tuple(f.key_str for f in findings[:9])
        assert scored.value == 45.0
        assert warnings == ["CVE-NA@svc0:0 candidate 1: 3 target key(s) past the first 8 ignored"]

    def test_unknown_target_warned_and_ignored(self):
        a = finding(score=5.0)
        rec = Recommendation(text="x", target_vuln_ids=(a.key_str,))
        gateway = gw(
            {AgentRole.EVALUATOR: ["effect: full\ncost: low\ntargets: CVE-0000-0000@x:1"]}
        )
        scored, warnings = evaluate(rec, EvaluatorContext([a], CostPolicy()), gateway)
        assert scored.value == 5.0
        assert any("unknown target" in w for w in warnings)

        # The candidate's own finding, named by CVE id and by key, counts once.
        own = finding("CVE-2011-2523", "ftp", 21, score=9.8)
        rec = Recommendation(text="x", target_vuln_ids=(own.key_str,))
        reply = f"effect: full\ncost: low\ntargets: CVE-2011-2523, {own.key_str}, CVE-0000-0000@x:1"
        scored, warnings = evaluate(rec, EvaluatorContext([own], CostPolicy()),
                                    gw({AgentRole.EVALUATOR: [reply]}), number=2)
        assert (scored.target_vuln_ids, scored.value) == ((own.key_str,), 9.8)
        assert warnings == ["CVE-2011-2523@ftp:21 candidate 2: evaluator named 1 unknown "
                            "target(s), the first 'CVE-0000-0000@x:1'; ignored"]

    def test_empty_reply_is_asked_again(self):
        target = finding("CVE-NA", "samba", 445, score=9.0)
        rec = Recommendation(text="Update Samba now", target_vuln_ids=(target.key_str,))
        gateway = gw({AgentRole.EVALUATOR: ["", "effect: full\ncost: low"]})
        scored, _ = evaluate(rec, EvaluatorContext([target], CostPolicy()), gateway)
        assert (scored.value, scored.cost) == (9.0, 2.0)

    @pytest.mark.parametrize("reply", ["effect: full\ncost: hıgh",
                                       "effect: partıal 40\ncost: low"])
    def test_a_keyword_with_a_folding_lookalike_is_asked_again(self, reply):
        """A dotless i matches ``i`` only by Unicode case folding, and keywords are ASCII:
        the reply is unparseable, and the evaluator is asked again."""
        target = finding("CVE-NA", "samba", 445, score=9.0)
        rec = Recommendation(text="Update Samba now", target_vuln_ids=(target.key_str,))
        gateway = gw({AgentRole.EVALUATOR: [reply, "effect: partial 40\ncost: high"]})
        scored, warnings = evaluate(rec, EvaluatorContext([target], CostPolicy()), gateway)
        assert (scored.value, scored.cost) == (3.6, 10.0)
        assert warnings == [f"{target.key_str} candidate 1: unparseable evaluation reply: "
                            f"{reply!r}"]

    def test_unparseable_twice_conservative_default(self):
        a = finding(score=5.0)
        rec = Recommendation(text="x", target_vuln_ids=(a.key_str,))
        gateway = gw({AgentRole.EVALUATOR: ["mumble", "mumble again"]})
        scored, warnings = evaluate(rec, EvaluatorContext([a], CostPolicy()), gateway)
        assert scored.value == 0.0
        assert scored.cost == 5.0  # moderate tier
        assert warnings

    @given(
        tiers=st.lists(st.floats(min_value=0, max_value=1000), min_size=3, max_size=3),
        replies=st.sampled_from([["effect: full\ncost: low"], ["effect: zero\ncost: moderate"],
                                 ["effect: partial 50%\ncost: high"], ["effect: full\ncost: 7.25"],
                                 ["mumble", "mumble again"]]),
    )
    def test_cost_is_what_the_knapsack_charges(self, tiers, replies):
        """Off-grid tier scores: every cost, the fallback's too, sits on the knapsack's grid."""
        a = finding(score=5.0)
        policy = CostPolicy(tier_scores=tuple(zip(("low", "moderate", "high"), tiers)))
        rec = Recommendation(text="x", target_vuln_ids=(a.key_str,))
        scored, _ = evaluate(rec, EvaluatorContext([a], policy),
                             gw({AgentRole.EVALUATOR: replies}))
        assert round(scored.cost * COST_SCALE) / COST_SCALE == scored.cost

    def test_user_preference_forwarded_to_prompt(self, tmp_path):
        a = finding(score=5.0)
        policy = CostPolicy(user_preference_text="downtime is unacceptable")
        rec = Recommendation(text="x", target_vuln_ids=(a.key_str,))
        backend = ScriptedBackend({AgentRole.EVALUATOR: ["effect: full\ncost: low"]})
        gateway = Gateway(backend, record_path=tmp_path / "t.jsonl")
        evaluate(rec, EvaluatorContext([a], policy), gateway)
        system_text = load_transcript(tmp_path / "t.jsonl")[0].messages[0].content
        assert "downtime is unacceptable" in system_text


def fold_key(key):
    """Case as ``Vulnerability.key`` has it: upper before the first "@", lower after it."""
    head, at, tail = key.partition("@")
    return head.upper() + at + tail.lower()


def linear_resolve(keys, findings):
    """Reference target resolution: the first folded key match, then the first id match."""
    resolved, unknown = [], []
    for key in keys:
        match = next((f for f in findings if fold_key(f.key_str) == fold_key(key)), None)
        if match is None:
            match = next(
                (f for f in findings if f.id.upper() == key.upper() != CVE_NA), None
            )
        if match is None:
            unknown.append(key)
        elif (match.key_str, match) not in resolved:
            resolved.append((match.key_str, match))
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

scored_findings = st.lists(
    st.builds(
        Vulnerability,
        id=st.one_of(st.sampled_from([CVE_NA, "cve-na", "Cve-Na"]),
                     st.from_regex(r"[Cc][Vv][Ee]-(19|20)[0-9]{2}-[0-9]{4,7}", fullmatch=True)),
        service=st.one_of(st.sampled_from(["ftp", "FTP", "http ", "Samba"]),
                          st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                                blacklist_characters=";"), max_size=12)),
        port=st.one_of(st.none(), st.integers(0, 65535)),
        cvss=st.one_of(st.none(), st.integers(0, 100).map(
            lambda tenths: finding(score=tenths / 10).cvss)),
    ),
    max_size=12,
).map(dedupe_findings)


class TestEvaluatorContext:
    @given(loose_findings, st.data())
    @settings(max_examples=200, deadline=None)
    def test_resolve_matches_linear_scan(self, findings, data):
        names = IDS + ["CVE-0000-0000@x:1", "cve-2011-2523@ftp:21", "CVE-2011-2523@FTP:21",
                       "cve-na@HTTP:80", "Cve-Na@Ftp:-", "ftp"]
        names += [f.key_str for f in findings] + [f.id.lower() for f in findings]
        keys = data.draw(st.lists(st.sampled_from(names), max_size=10))
        got = EvaluatorContext(findings, CostPolicy()).resolve(keys)
        expected = linear_resolve(keys, findings)
        assert got == expected
        # Identity, not only equality: the first matching finding is the one returned.
        assert [id(f) for _, f in got[0]] == [id(f) for _, f in expected[0]]

    def test_unnamed_finding_never_resolves_by_id_in_any_case(self):
        context = EvaluatorContext([Vulnerability("cve-na", "ftp", 21)], CostPolicy())
        assert context.resolve(["CVE-NA", "cve-na"]) == ([], ["CVE-NA", "cve-na"])

    def test_target_keys_fold_case_as_finding_keys_do(self):
        ftp, http = finding("CVE-2011-2523", "ftp", 21, 9.8), finding("CVE-NA", "http", 80, 5.0)
        reply = "effect: full\ncost: low\ntargets: cve-na@http:80, CVE-2011-2523@FTP:21"
        rec = Recommendation(text="x", target_vuln_ids=(ftp.key_str,))
        scored, warnings = evaluate(rec, EvaluatorContext([ftp, http], CostPolicy()),
                                    gw({AgentRole.EVALUATOR: [reply]}))
        assert warnings == []
        assert scored.target_vuln_ids == ("CVE-2011-2523@ftp:21", "CVE-NA@http:80")
        assert scored.value == 14.8

    @given(scored_findings)
    @settings(max_examples=200, deadline=None)
    def test_system_list_names_each_finding_once_by_a_key_that_resolves(self, findings):
        context = EvaluatorContext(findings, CostPolicy())
        rendered = format_vulns_inline(findings)
        assert f"these vulnerabilities: {rendered}. If" in context.system
        entries = rendered.split("; ") if findings else []
        assert len(entries) == len(findings)
        for entry, f in zip(entries, findings):
            key = f.key_str
            assert entry == (f"{key} (CVSS {f.cvss.base_score})" if f.cvss else key)
            for spelling in (key, key.swapcase()):
                resolved, unknown = context.resolve([spelling])
                assert (resolved, unknown) == ([(key, f)], [])
                assert resolved[0][1] is f


def scored_rec(text, key, cost, value):
    return Recommendation(text=text, target_vuln_ids=(key,), cost=cost, value=value)


class TestSelect:
    def test_empty_selection(self):
        result = select([], 10.0)
        assert result.groups == [] and result.selected == []

    def test_narrowing_example(self):
        # Four candidates for one finding, budget 3: a cheap full fix is
        # adopted, the audit and the shutdown are discarded.
        group = RecommendationGroup(
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
        assert sum(c.value for c in result.selected) == 18.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_selected_is_the_knapsack_picks_in_group_order(self, data):
        candidate = st.builds(scored_rec, st.sampled_from("abc"), st.just("k"),
                              st.integers(0, 100).map(lambda tenths: tenths / 10),
                              st.integers(-500, 1800).map(lambda cents: cents / 100))
        groups = data.draw(st.lists(st.builds(RecommendationGroup, st.lists(
            candidate, min_size=1, max_size=4).map(tuple)), max_size=5))
        budget = data.draw(st.integers(0, 4000)) / 100
        picks = solve_group_knapsack(
            [[(c.cost, c.value) for c in g.candidates] for g in groups], budget)
        assert select(groups, budget).selected == [
            groups[g].candidates[c]._replace(status=RecommendationStatus.ADOPTED)
            for g, c in sorted(picks)]

    def test_statuses_settled_for_every_candidate(self):
        group = RecommendationGroup(
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
        result = remediate([], RunConfig(target_address="t"), gw({}), FixtureNvdClient())
        assert result.groups == [] and result.selected == []
        assert any("nothing to remediate" in w for w in result.warnings)

    def test_budget_is_per_vuln_times_findings(self):
        # Two findings at 4.0 each pool into one budget of 8.0: the 5.0 fix
        # fits it (it would not fit 4.0), and the 10.0 fix does not fit beside it.
        gateway = gw(
            {
                AgentRole.ESTIMATOR: ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"] * 2,
                AgentRole.ADVISOR: ["1. Moderate fix", "1. Costly fix"],
                AgentRole.EVALUATOR: ["effect: full\ncost: moderate", "effect: full\ncost: high"],
            }
        )
        config = RunConfig(target_address="t", budget_per_vuln=4.0)
        findings = [finding(port=80), finding(service="nfs", port=2049)]
        result = remediate(findings, config, gateway, FixtureNvdClient())
        assert [(r.text, r.cost) for r in result.selected] == [("Moderate fix", 5.0)]

    def test_report_rendering(self):
        group = RecommendationGroup(
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


class _NvdStub(BaseHTTPRequestHandler):
    """Answers each GET with the next queued status; a 200 carries the bundled record."""

    statuses: list[int] = []
    hits: list[str] = []
    api_keys: list[str | None] = []  # each GET's apiKey header, None if it had none

    def do_GET(self):
        _NvdStub.hits.append(self.path)
        _NvdStub.api_keys.append(self.headers.get("apiKey"))
        status = _NvdStub.statuses.pop(0)
        raw = FixtureNvdClient()._read("CVE-2011-2523").encode() if status == 200 else b""
        self.send_response(status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def nvd_stub(tmp_path, fast_retries):
    """A live client querying a local stub server, and the stub."""
    server = HTTPServer(("127.0.0.1", 0), _NvdStub)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _NvdStub.statuses, _NvdStub.hits, _NvdStub.api_keys = [], [], []
    client = LiveNvdClient(cache_dir=tmp_path / "cache",
                           base_url=f"http://127.0.0.1:{server.server_port}/rest")
    yield client, _NvdStub
    server.shutdown()
    server.server_close()


class TestLiveNvdRetries:
    @pytest.mark.parametrize("key", ["nvd-key", None])
    def test_api_key_header_sent_only_when_set(self, nvd_stub, monkeypatch, tmp_path, key):
        stub_client, stub = nvd_stub
        if key:
            monkeypatch.setenv(NVD_API_KEY_ENV, key)
        else:
            monkeypatch.delenv(NVD_API_KEY_ENV, raising=False)
        stub.statuses = [200]
        LiveNvdClient(cache_dir=tmp_path / "keyed", base_url=stub_client.base_url).lookup(
            "CVE-2011-2523")
        assert stub.api_keys == [key]

    def test_rate_limited_then_served(self, nvd_stub):
        client, stub = nvd_stub
        stub.statuses = [429, 200]
        record = client.lookup("CVE-2011-2523")
        assert record.metrics.base_score == 9.8
        assert len(stub.hits) == 2
        assert "cveId=CVE-2011-2523" in stub.hits[0]
        # second lookup comes from the disk cache
        client.lookup("CVE-2011-2523")
        assert len(stub.hits) == 2

    def test_forbidden_then_served(self, nvd_stub):
        client, stub = nvd_stub
        stub.statuses = [403, 200]
        assert client.lookup("CVE-2011-2523").metrics.base_score == 9.8
        assert len(stub.hits) == 2

    def test_not_found_is_not_retried(self, nvd_stub):
        client, stub = nvd_stub
        stub.statuses = [404]
        with pytest.raises(CveNotFound):
            client.lookup("CVE-2011-2523")
        assert len(stub.hits) == 1

    def test_client_error_fails_at_once(self, nvd_stub):
        client, stub = nvd_stub
        stub.statuses = [400]
        with pytest.raises(NvdError) as exc_info:
            client.lookup("CVE-2011-2523")
        assert str(exc_info.value) == "NVD query for CVE-2011-2523 failed: HTTP 400"
        assert len(stub.hits) == 1

    def test_gives_up_after_three_unavailable(self, nvd_stub):
        client, stub = nvd_stub
        stub.statuses = [503, 503, 503]
        with pytest.raises(NvdError) as exc_info:
            client.lookup("CVE-2011-2523")
        assert str(exc_info.value) == (
            "NVD query for CVE-2011-2523 failed after 3 attempts: HTTP 503"
        )
        assert len(stub.hits) == 3
