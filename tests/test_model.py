"""Core domain types: plan validation, the JSON codec and run-artifact round-trips."""

import copy
import json
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    validate_plan,
)

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


class TestFindingIdentity:
    def test_dedupe_by_triple(self):
        a = Vulnerability(id="CVE-NA", service="http", port=80)
        b = Vulnerability(id="cve-na", service="HTTP ", port=80, description="later")
        c = Vulnerability(id="CVE-NA", service="http", port=8080)
        assert dedupe_findings([a, b, c]) == [a, c]

    def test_id_pattern(self):
        assert Vulnerability(id="CVE-2011-2523", service="ftp").has_valid_id()
        assert Vulnerability(id="CVE-NA", service="ftp").has_valid_id()
        assert not Vulnerability(id="EXPLOIT-123", service="ftp").has_valid_id()

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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs).validate()

    def test_cost_policy_tiers(self):
        policy = CostPolicy()
        assert policy.tier("low") == 2.0
        assert policy.tier("Moderate") == 5.0
        assert policy.tier("high") == 10.0
        with pytest.raises(KeyError):
            policy.tier("extreme")

    def test_round_trip_through_dict(self):
        config = RunConfig(target_address="10.0.2.4", budget_per_vuln=3.5)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_partial_tier_scores_merge_with_the_defaults(self):
        config = RunConfig.from_dict(
            {"target_address": "x", "cost_policy": {"tier_scores": {"High": 8}}})
        tiers = config.cost_policy
        assert (tiers.tier("low"), tiers.tier("moderate"), tiers.tier("high")) == (2, 5, 8)

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
