"""Core domain types: plan validation, the JSON codec and run-artifact round-trips."""

import copy
import enum
import importlib
import json
import json.encoder
import math
import pkgutil
import re
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from plan_invariants import validate_plan

from penheal import model
from penheal.model import (
    ArtifactParseError,
    AttackPlan,
    CostPolicy,
    CvssMetrics,
    CvssSource,
    Recommendation,
    RecommendationStatus,
    RunConfig,
    ScoreReport,
    TaskNode,
    TaskStatus,
    Vulnerability,
    dedupe_findings,
    deserialize_run,
    serialize_run,
)
from penheal.nvd import _validated_id

DATA = Path(__file__).parent / "data"


def node(task_id, desc="task", status=TaskStatus.TODO, result=None, children=()):
    return TaskNode(
        id=task_id,
        description=desc,
        status=status,
        result_summary=result,
        children=tuple(children),
    )


def well_formed_plan() -> AttackPlan:
    return AttackPlan(
        roots=(
            node(
                "1",
                "Reconnaissance",
                children=[node("1.1", "Scan ports"), node("1.2", "Enumerate services")],
            ),
        )
    )


class TestValidatePlan:
    def test_well_formed_tree_passes(self):
        assert validate_plan(well_formed_plan()) == []

    def test_parent_mismatch_names_node(self):
        plan = AttackPlan(roots=(node("2", "root", children=[node("1.1", "stray")]),))
        violations = validate_plan(plan)
        assert any(v.startswith("1.1:") and "parent mismatch" in v for v in violations)

    def test_completed_without_summary_flagged(self):
        plan = AttackPlan(roots=(node("1", "done", status=TaskStatus.COMPLETED),))
        violations = validate_plan(plan)
        assert any(v.startswith("1:") and "summary" in v for v in violations)

    def test_todo_with_summary_flagged(self):
        plan = AttackPlan(roots=(node("1", "t", result="should not be here"),))
        assert any("to-do task carries" in v for v in validate_plan(plan))

    def test_duplicate_ids_flagged(self):
        plan = AttackPlan(roots=(node("1", "a"), node("1", "b")))
        assert any("duplicate id" in v for v in validate_plan(plan))

    def test_multi_segment_root_flagged(self):
        plan = AttackPlan(roots=(node("1.1", "not a root"),))
        assert any("root id" in v for v in validate_plan(plan))

    def test_empty_plan_flagged(self):
        assert validate_plan(AttackPlan()) == ["plan: no root tasks"]

    def test_overlong_summary_flagged(self):
        plan = AttackPlan(
            roots=(node("1", "t", status=TaskStatus.FAILED, result="x" * 501),)
        )
        assert any("exceeds 500" in v for v in validate_plan(plan))

    @pytest.mark.parametrize(
        "corruption",
        [
            lambda p: AttackPlan(roots=(node("3", "root", children=[node("4.1", "kid")]),)),
            lambda p: AttackPlan(roots=(node("1", ""),)),
            lambda p: AttackPlan(roots=(node("bad-id", "x"),)),
            lambda p: AttackPlan(
                roots=(node("1", "x", status=TaskStatus.COMPLETED, result=None),)
            ),
        ],
    )
    def test_single_field_corruptions_yield_violations(self, corruption):
        assert validate_plan(corruption(well_formed_plan()))


def sample_metrics(score=9.8):
    return CvssMetrics(
        av="N", ac="L", pr="N", ui="N", scope="U", c="H", i="H", a="H", base_score=score
    )


def sample_run():
    plan = AttackPlan(
        roots=(
            node(
                "1",
                "Recon",
                status=TaskStatus.COMPLETED,
                result="done",
                children=[node("1.1", "Scan", status=TaskStatus.FAILED, result="refused")],
            ),
        )
    )
    findings = [
        Vulnerability(
            id="CVE-2011-2523",
            service="ftp",
            port=21,
            description="backdoor",
            exploitation_method="module",
            cvss=sample_metrics(),
            cvss_source=CvssSource.NVD_LOOKUP,
        ),
        Vulnerability(id="CVE-NA", service="http", port=80, description="sqli"),
        Vulnerability(id="CVE-NA", service="nfs", port=2049),
    ]
    recommendations = [
        Recommendation(
            text="update the daemon",
            target_vuln_ids=("CVE-2011-2523@ftp:21",),
            cost=2.0,
            value=9.8,
            status=RecommendationStatus.ADOPTED,
            rationale="effect: full",
        ),
        Recommendation(
            text="disable the daemon",
            target_vuln_ids=("CVE-2011-2523@ftp:21",),
            cost=10.0,
            value=9.8,
            status=RecommendationStatus.DISCARDED,
        ),
    ]
    report = ScoreReport(
        s_d=3.0, s_r=9.8, c=2.0, s_overall=3.6, found_count=3, truth_count=10, run_id="t1"
    )
    return plan, findings, recommendations, report


class TestArtifactRoundTrip:
    def test_empty_findings_round_trips(self):
        plan = well_formed_plan()
        raw = serialize_run(plan, [], [], None)
        got_plan, got_findings, got_recs, got_report = deserialize_run(raw)
        assert got_plan == plan
        assert got_findings == [] and got_recs == [] and got_report is None

    def test_three_vuln_run_round_trips(self):
        plan, findings, recs, report = sample_run()
        raw = serialize_run(plan, findings, recs, report, run_id="t1")
        got = deserialize_run(raw)
        assert got == (plan, findings, recs, report)

    def test_three_vuln_golden_file(self):
        # Golden produced by serialize_run once, then frozen.
        plan, findings, recs, report = sample_run()
        raw = serialize_run(plan, findings, recs, report, run_id="t1")
        golden = (DATA / "artifact_3vuln.json").read_bytes()
        assert raw == golden
        assert deserialize_run(golden) == (plan, findings, recs, report)

    def test_golden_artifact_is_written_without_the_json_encoder(self):
        """``json.dumps`` with an indent runs json's pure-Python encoder; the writer does not."""
        golden = (DATA / "golden-run" / "run-artifact.json").read_bytes()
        doc, parts = json.loads(golden), deserialize_run(golden)
        serialize_run(*parts)  # builds the codecs first, outside the profile
        entered = []
        sys.setprofile(lambda frame, event, arg: event == "call" and entered.append(
            frame.f_code.co_filename))
        try:
            raw = serialize_run(*parts, run_id=doc["run_id"], created_at=doc["created_at"],
                                transcript_ref=doc["transcript_ref"])
        finally:
            sys.setprofile(None)
        assert raw == golden
        assert entered and json.encoder.__file__ not in entered

    def test_truncated_stream_is_parse_error(self):
        plan, findings, recs, report = sample_run()
        raw = serialize_run(plan, findings, recs, report)
        with pytest.raises(ArtifactParseError):
            deserialize_run(raw[: len(raw) // 2])

    def test_parse_error_carries_byte_offset(self):
        with pytest.raises(ArtifactParseError) as exc_info:
            deserialize_run(b'{"plan": ???}')
        assert "byte offset" in str(exc_info.value)

    def test_non_object_root_rejected(self):
        with pytest.raises(ArtifactParseError):
            deserialize_run(b"[1, 2, 3]")

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ArtifactParseError):
            deserialize_run(b"\xff\xfe{}")

    @pytest.mark.parametrize("raw", [
        b"[" * 100_000,  # too deep for json.loads
        (b'{"artifact_version": 1, "run_id": "", "created_at": "", "transcript_ref": "",'
         b' "plan": {"roots": [' + b'{"id": "1", "description": "x", "children": [' * 400
         + b"]}" * 400 + b"]}}"),  # parses, but a 400-level plan is too deep for the codec
    ], ids=["lists", "plan"])
    def test_deep_nesting_is_a_parse_error(self, raw):
        with pytest.raises(ArtifactParseError, match="nesting too deep"):
            deserialize_run(raw)


def _leaf_paths(node, path=()):
    """Paths to every scalar, empty list and empty object of a JSON document."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    if not children:
        yield path
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


def _conforms(value, hint) -> bool:
    """Whether ``value`` matches the annotation ``hint`` all the way down."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_conforms(value, arg) for arg in args)
    if origin in (list, tuple):
        items = args[:1] * len(value) if origin is list or args[-1] is ... else args
        return (type(value) is origin and len(items) == len(value)
                and all(_conforms(v, h) for v, h in zip(value, items)))
    if hint is type(None):
        return value is None
    if hasattr(hint, "_fields"):
        hints = typing.get_type_hints(hint)
        return type(value) is hint and all(
            _conforms(getattr(value, name), hints[name]) for name in hint._fields)
    return type(value) is hint


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(),
                                                          max_size=2),
)


class TestArtifactTypes:
    GOLDEN = json.loads((DATA / "artifact_3vuln.json").read_text())
    LEAVES = list(_leaf_paths(GOLDEN))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mistyped_leaf_is_a_parse_error_or_well_typed(self, data):
        path = data.draw(st.sampled_from(self.LEAVES))
        doc = copy.deepcopy(self.GOLDEN)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        parent[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
        try:
            decoded = deserialize_run(json.dumps(doc).encode())
        except ArtifactParseError:
            return
        hints = typing.get_type_hints(deserialize_run)["return"]
        assert _conforms(decoded, hints)

    def test_mistyped_service_names_the_field(self):
        doc = copy.deepcopy(self.GOLDEN)
        doc["findings"][0]["service"] = 5
        with pytest.raises(ArtifactParseError, match="Vulnerability.service"):
            deserialize_run(json.dumps(doc).encode())

    @pytest.mark.parametrize("bad", ["x" * 100_000, ["x" * 100_000], {"k": "x" * 100_000}],
                             ids=["string", "list", "object"])
    def test_bad_enum_value_is_quoted_clipped(self, bad):
        doc = copy.deepcopy(self.GOLDEN)
        doc["findings"][0]["cvss_source"] = bad
        with pytest.raises(ArtifactParseError, match="is not a valid CvssSource") as exc_info:
            deserialize_run(json.dumps(doc).encode())
        message = str(exc_info.value)
        assert message.startswith("artifact schema error: _Artifact.findings: "
                                  "Vulnerability.cvss_source: " + repr(bad)[:60] + " is not")
        assert len(message) <= 100 + 60


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


# Lone surrogates and characters json escapes, besides any other character.
_CHARS = st.one_of(st.characters(), st.characters(categories=["Cs"]),
                   st.sampled_from('\x00\x1f\x7f"\\\n\t\u2028\xe9'))
_KEYS = st.one_of(st.text(_CHARS, max_size=6), st.text(_CHARS, max_size=6).map(_Str))
_EDGE_FLOATS = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]
_LEAVES = st.one_of(
    st.text(_CHARS, max_size=8), st.text(_CHARS, max_size=8).map(_Str),
    st.integers(), st.integers(-10**40, 10**40), st.integers().map(_Int),
    st.floats(), st.sampled_from(_EDGE_FLOATS), st.floats().map(_Float),
    st.booleans(), st.none())
_JSON_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=4).map(_List), st.dictionaries(_KEYS, inner, max_size=4),
    st.dictionaries(_KEYS, inner, max_size=4).map(_Dict)), max_leaves=24)


@settings(deadline=None)
@given(_JSON_VALUES)
@example({"": [], "a": {}, "b": (), "c": [[{}]], "é\n\"\x00": _EDGE_FLOATS + [10**30, -10**30]})
@example("\ud800 lone")
@example([True, False, None, _Int(7), _Float(-0.0), _Str("s")])
def test_artifact_writer_writes_what_json_dumps_writes(value):
    assert model.json_document(value) == json.dumps(value, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("value", [{1, 2}, {"a": object()}, [b"bytes"]])
def test_artifact_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        model.json_document(value)


def test_json_lines_stream_out_and_read_back_naming_a_bad_line(tmp_path):
    """One codec line per value, appended or not; blank lines are skipped on read, and a
    line that is not UTF-8, not JSON or not the type is a ValueError naming its number."""
    path = tmp_path / "rows.jsonl"
    rows = [Vulnerability("CVE-NA", "http", 80, description="caf\u00e9 \u2028 line"),
            Vulnerability("CVE-2011-2523", "ftp", 21)]
    model.write_json_lines(path, iter(rows[:1]))
    model.write_json_lines(path, iter(rows[1:]), append=True)
    text = "".join(json.dumps(model.encode(row), ensure_ascii=False) + "\n" for row in rows)
    assert path.read_bytes() == text.encode("utf-8")
    path.write_text("\n" + text + "  \n", encoding="utf-8")
    assert model.read_json_lines(path, Vulnerability) == rows
    for bad in (b"\xff", b'{"id": "CVE-NA",', b'{"id": 5, "service": "ftp"}', b"[]", b"{}"):
        path.write_bytes(b"\n" + text.encode("utf-8") + bad + b"\n")
        with pytest.raises(ValueError, match=f"^{path} line 4 is unreadable: "):
            model.read_json_lines(path, Vulnerability)


def test_load_json_refuses_a_lone_surrogate_escape_at_its_offset():
    """No UTF-8 writer takes a lone surrogate, so reading one is a JSONDecodeError at its
    escape; a pair is one character, and an escaped backslash before "udc80" is no escape."""
    with pytest.raises(json.JSONDecodeError, match=r"^lone surrogate \\udc80: .*\(char 2\)$"):
        model.load_json('"a\\udc80"')
    assert model.load_json('"\\ud83d\\ude00"') == "\U0001F600"
    assert model.load_json('["\\\\udc80"]') == ["\\udc80"]
    with pytest.raises(json.JSONDecodeError) as raised:
        model.load_json('["\\ud83d\\udc80", {"k\\uDC80": 1}]')
    assert (raised.value.msg, raised.value.pos) == ("lone surrogate \\uDC80", 20)


def _writable(text: str) -> bool:
    """Whether the JSON string body ``text`` decodes to text a UTF-8 writer takes."""
    try:
        json.loads(f'"{text}"').encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["\\ud83d", "\\uDE00", "\\udc80", "\\uD800", "\\\\", "\\n",
                                 "\\u0041", "a", "\\\\ud83d", "\u00e9", "\\ud7ff", "\\ue000"]),
                max_size=8))
def test_load_json_refuses_exactly_what_no_utf8_writer_takes(parts):
    body = "".join(parts)
    text = f'["{body}"]'
    if _writable(body):
        assert model.load_json(text) == json.loads(text)
        return
    with pytest.raises(json.JSONDecodeError, match="^lone surrogate ") as raised:
        model.load_json(text)
    pos = raised.value.pos - 2  # in the body
    assert body[pos:pos + 3].lower() == "\\ud"  # the first escape that makes it unwritable
    assert _writable(body[:pos]) and not _writable(body[:pos + 6])
    assert raised.value.msg == f"lone surrogate {body[pos:pos + 6]}"


def _load_json_by_two_scans(text):
    """load_json with its former surrogate pre-check, two substring scans, as an oracle."""
    if "\\ud" in text or "\\uD" in text:
        if lone := next((m for m in re.finditer(model._ESCAPE, text) if m[1]), None):
            raise json.JSONDecodeError(f"lone surrogate \\{lone[1]}", text, lone.start())
    return json.loads(text)


def _outcome(load, text):
    try:
        return "value", load(text)
    except json.JSONDecodeError as exc:
        return "error", exc.msg, exc.pos


# High, low and paired surrogate escapes, escaped backslashes before "ud..", and cut escapes.
_SURROGATE_PARTS = st.sampled_from([
    "\\ud83d", "\\uDE00", "\\udc80", "\\uD800", "\\uDBFF", "\\udfff", "\\ud83d\\ude00",
    "\\uD83D\\uDE00", "\\\\", "\\\\ud83d", "\\\\\\udc80", "\\\\uDC80", "\\u0041", "\\n", "a",
    "\u00e9", "\\ud7ff", "\\ue000", "\\u", "\\uD", "\\ud8", "\\ud83d\\u0041", "\\"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_SURROGATE_PARTS, max_size=6).map("".join), min_size=1, max_size=3),
       st.sampled_from(["list", "object", "bare"]))
@example(["\\\\ud83d", "\\udc80"], "object")
@example(["a\\uD800"], "bare")
def test_load_json_raises_or_returns_as_the_two_scan_check(bodies, layout):
    """One compiled search decides what the two scans decided: the same value, or the same
    error at the same offset."""
    text = {"list": lambda: "[" + ", ".join(f'"{b}"' for b in bodies) + "]",
            "object": lambda: "{" + ", ".join(f'"{b}": ["{b}", 1]' for b in bodies) + "}",
            "bare": lambda: "[" + ", ".join(bodies) + "]"}[layout]()
    assert _outcome(model.load_json, text) == _outcome(_load_json_by_two_scans, text)


def test_module_globals_name_each_value_type_once():
    """Each value type is bound to its own name alone: no loop variable keeps one."""
    types = {name: value for name, value in vars(model).items()
             if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")}
    assert "RunConfig" in types
    assert [name for name, cls in types.items() if name != cls.__name__] == []


def test_every_enum_hashes_by_identity():
    """A member-keyed dict lookup hashes in C: ``enum.Enum`` hashes by name in Python."""
    import penheal

    enums = {}
    for module in pkgutil.iter_modules(penheal.__path__, "penheal."):
        for value in vars(importlib.import_module(module.name)).values():
            if isinstance(value, type) and issubclass(value, enum.Enum) and len(value):
                enums[value.__name__] = value
    assert sorted(enums) == ["AgentRole", "AggregationMode", "CommandChannel", "CvssSource",
                             "RecommendationStatus", "RoleTag", "TaskStatus"]
    assert [name for name, cls in enums.items() if cls.__hash__ is not object.__hash__] == []


class TestFindingIdentity:
    def test_dedupe_by_triple(self):
        a = Vulnerability(id="CVE-NA", service="http", port=80)
        b = Vulnerability(id="cve-na", service="HTTP ", port=80, description="later")
        c = Vulnerability(id="CVE-NA", service="http", port=8080)
        assert dedupe_findings([a, b, c]) == [a, c]

    def test_id_pattern(self):
        # Which finding ids are CVE ids to look up is the NVD client's rule alone.
        assert _validated_id("CVE-2011-2523") == "CVE-2011-2523"
        assert _validated_id(" cve-2011-2523 ") == "CVE-2011-2523"
        assert _validated_id("CVE-2017-1000117") == "CVE-2017-1000117"  # 7 digits, the most
        for not_a_cve in ("CVE-NA", "EXPLOIT-123", "CVE-2011-252", "CVE-2017-10001170",
                          "CVE-2011-" + "2" * 5000):
            with pytest.raises(ValueError, match="not a CVE identifier") as exc_info:
                _validated_id(not_a_cve)
            assert len(str(exc_info.value)) <= 100  # the id is quoted clipped

    @pytest.mark.parametrize("digits", ["\uff12\uff10\uff11\uff11-\uff12\uff15\uff12\uff13",
                                        "\u0662\u0660\u0661\u0661-\u0662\u0665\u0662\u0663"],
                             ids=["fullwidth", "arabic-indic"])
    def test_id_digits_are_ascii(self, digits):
        """The id grammar is the extractor's, in ASCII: other digits name no CVE to look up."""
        with pytest.raises(ValueError, match="not a CVE identifier"):
            _validated_id(f"CVE-{digits}")

    @given(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=65535) | st.none(),
    )
    @settings(max_examples=50, deadline=None)
    def test_key_is_stable_under_case_and_space(self, service, port):
        a = Vulnerability(id="CVE-NA", service=service, port=port)
        b = Vulnerability(id="CVE-NA", service=service.upper(), port=port)
        assert a.key == b.key

    def test_fields_are_read_only(self):
        finding = Vulnerability(id="CVE-2011-2523", service="ftp", port=21)
        with pytest.raises(AttributeError):
            finding.port = 22
        assert finding._replace(port=22).port == 22 and finding.port == 21


_TIER_NAMES = st.sampled_from(["low", "moderate", "high", "urgent", ""]).flatmap(
    lambda name: st.sampled_from([name, name.upper(), name.title(), name[:1] + name[1:].upper()]))


class TestConfig:
    def test_defaults(self):
        config = RunConfig(target_address="10.0.2.4")
        config.validate()
        assert config.budget_per_vuln == 4.0
        assert config.retrieval_k == 3
        assert config.max_iterations == 30
        assert config.no_new_finding_window == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_address": ""},
            {"target_address": "x", "budget_per_vuln": -1},
            {"target_address": "x", "max_iterations": 0},
            {"target_address": "x", "retrieval_k": 0},
            {"target_address": "x", "no_new_finding_window": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs).validate()

    def test_cost_policy_tiers(self):
        assert CostPolicy().tiers() == {"low": 2.0, "moderate": 5.0, "high": 10.0}

    @pytest.mark.parametrize("name", ["Urgent", "urgent", "", "lowest", "mod"])
    def test_unknown_tier_name_is_rejected_naming_it(self, name):
        """The evaluator is offered low, moderate and high only, so another name is unused."""
        config = RunConfig.from_dict(
            {"target_address": "x", "cost_policy": {"tier_scores": {"low": 1, name: 7}}})
        with pytest.raises(ValueError, match=f"unknown cost tier {name!r}"):
            config.validate()

    @pytest.mark.parametrize("tier_scores", [{"low": 1, "LOW": 3}, [["High", 8], ["high", 9]]])
    def test_tier_named_twice_is_rejected(self, tier_scores):
        """Tier names are read in any case, so the second is the same tier given twice."""
        config = RunConfig.from_dict(
            {"target_address": "x", "cost_policy": {"tier_scores": tier_scores}})
        with pytest.raises(ValueError, match="tier_scores names (low|high) twice"):
            config.validate()

    def test_tiers_is_a_fresh_copy(self):
        policy = CostPolicy((("Low", 1.0),))
        policy.tiers()["low"] = 9.0
        assert policy.tiers() == {"low": 1.0, "moderate": 5.0, "high": 10.0}

    @settings(deadline=None)
    @given(st.lists(st.tuples(_TIER_NAMES, st.floats(0, 10)), max_size=5).map(tuple))
    def test_tiers_lay_the_policy_over_the_defaults_by_lowercased_name(self, tier_scores):
        expected = {"low": 2.0, "moderate": 5.0, "high": 10.0}
        for name, score in tier_scores:  # a name given twice keeps its last score
            expected[name.lower()] = score
        assert CostPolicy(tier_scores).tiers() == expected

    def test_round_trip_through_dict(self):
        config = RunConfig(target_address="10.0.2.4", budget_per_vuln=3.5)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_partial_tier_scores_merge_with_the_defaults(self):
        config = RunConfig.from_dict(
            {"target_address": "x", "cost_policy": {"tier_scores": {"High": 8, "LOW": 1}}})
        config.validate()  # a tier name is read in any case
        assert config.cost_policy.tiers() == {"low": 1, "moderate": 5, "high": 8}

    def test_missing_target_is_named_by_validate(self):
        with pytest.raises(ValueError, match="target_address must be set"):
            RunConfig.from_dict({"out_dir": "ignored"}).validate()

    @pytest.mark.parametrize("doc, field", [
        ({"budget_per_vuln": "4"}, "RunConfig.budget_per_vuln"),
        ({"retrieval_k": 2.0}, "RunConfig.retrieval_k"),
        ({"max_iterations": True}, "RunConfig.max_iterations"),
        ({"aggregation_mode": "mean"}, "RunConfig.aggregation_mode"),
        ({"role_models": ["planner"]}, "RunConfig.role_models"),
        ({"cost_policy": {"tier_scores": {"low": None}}}, "CostPolicy.tier_scores"),
        ({"cost_policy": []}, "RunConfig.cost_policy"),
    ])
    def test_mistyped_field_is_a_value_error_naming_it(self, doc, field):
        with pytest.raises(ValueError, match=field):
            RunConfig.from_dict({"target_address": "x", **doc})

    def test_codec_json_rules(self):
        config = RunConfig.from_dict({"target_address": "x", "budget_per_vuln": 3,
                                      "role_models": [["planner", "big"]]})
        assert config.budget_per_vuln == 3.0 and type(config.budget_per_vuln) is float
        assert config.role_models == (("planner", "big"),)
        assert list(config.to_dict()) == list(RunConfig._fields)
        assert config.to_dict()["role_models"] == {"planner": "big"}
        with pytest.raises(KeyError):
            Vulnerability.from_dict({"id": "CVE-NA"})
