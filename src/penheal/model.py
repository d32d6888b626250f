"""Core domain types shared by every stage of the pipeline.

All value types are immutable ``typing.NamedTuple`` classes: an update is
``value._replace(field=...)``, which returns a new instance, so plans, findings
and reports are safe to share. Values compare equal field by field, as tuples
do. Standard-library data classes are avoided on purpose: their module loads
``inspect`` and ``ast``, and each decorated class execs generated methods, a
cost every fresh process would pay at start-up.

The run-artifact JSON layout produced by :func:`serialize_run` is the contract
between CLI invocations.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from typing import Any, Iterator, NamedTuple, Optional

CVE_PATTERN = re.compile(r"^CVE-\d{4}-\d{4,}$")
CVE_NA = "CVE-NA"

RESULT_SUMMARY_MAX = 500


class TaskStatus(Enum):
    TODO = "to-do"
    COMPLETED = "completed"
    FAILED = "failed"


class CvssSource(Enum):
    NVD_LOOKUP = "nvd-lookup"
    ESTIMATED = "estimated"
    UNSET = "unset"


class RecommendationStatus(Enum):
    PROPOSED = "proposed"
    ADOPTED = "adopted"
    DISCARDED = "discarded"


class AggregationMode(Enum):
    DIVIDED_BY_THREE = "div3"
    SUM = "sum"


class BudgetScope(Enum):
    """Whether the remediation budget is pooled or applied per finding group."""

    TOTAL = "total"
    PER_VULNERABILITY = "per-vulnerability"


class TaskNode(NamedTuple):
    """One task in the layered attack plan (ids like "1", "1.2", "1.2.1")."""

    id: str
    description: str
    status: TaskStatus = TaskStatus.TODO
    result_summary: Optional[str] = None
    children: tuple["TaskNode", ...] = ()

    def walk(self) -> Iterator["TaskNode"]:
        """Depth-first traversal of this node and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "description": self.description,
            "status": self.status.value,
            "result_summary": self.result_summary,
            "children": [c.to_dict() for c in self.children],
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TaskNode":
        return TaskNode(
            id=data["id"],
            description=data["description"],
            status=TaskStatus(data["status"]),
            result_summary=data.get("result_summary"),
            children=tuple(TaskNode.from_dict(c) for c in data.get("children", [])),
        )


class AttackPlan(NamedTuple):
    """Ordered tree of pentest tasks following the standard phase sequence."""

    roots: tuple[TaskNode, ...] = ()

    def walk(self) -> Iterator[TaskNode]:
        for root in self.roots:
            yield from root.walk()

    def find(self, task_id: str) -> Optional[TaskNode]:
        for node in self.walk():
            if node.id == task_id:
                return node
        return None

    def first_todo(self) -> Optional[TaskNode]:
        """First to-do task in depth-first order, or None if exhausted."""
        for node in self.walk():
            if node.status is TaskStatus.TODO:
                return node
        return None

    def todo_ids(self) -> list[str]:
        return [n.id for n in self.walk() if n.status is TaskStatus.TODO]

    def structure_key(self) -> tuple[tuple[str, str], ...]:
        """Stable fingerprint of (id, status) pairs, used to detect stagnation."""
        return tuple((n.id, n.status.value) for n in self.walk())

    def with_node(self, node: TaskNode) -> "AttackPlan":
        """Return a new plan with the node of the same id replaced."""

        def rebuild(current: TaskNode) -> TaskNode:
            if current.id == node.id:
                return node
            return current._replace(children=tuple(rebuild(c) for c in current.children))

        return AttackPlan(roots=tuple(rebuild(r) for r in self.roots))

    def to_dict(self) -> dict[str, Any]:
        return {"roots": [r.to_dict() for r in self.roots]}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "AttackPlan":
        return AttackPlan(roots=tuple(TaskNode.from_dict(r) for r in data.get("roots", [])))


class CvssMetrics(NamedTuple):
    """The eight base-metric descriptors plus the derived base score."""

    av: str  # N, A, L, P
    ac: str  # L, H
    pr: str  # N, L, H
    ui: str  # N, R
    scope: str  # U, C
    c: str  # H, L, N
    i: str  # H, L, N
    a: str  # H, L, N
    base_score: float = 0.0

    def vector_string(self, prefix: str = "CVSS:3.1") -> str:
        return (
            f"{prefix}/AV:{self.av}/AC:{self.ac}/PR:{self.pr}/UI:{self.ui}"
            f"/S:{self.scope}/C:{self.c}/I:{self.i}/A:{self.a}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "av": self.av,
            "ac": self.ac,
            "pr": self.pr,
            "ui": self.ui,
            "scope": self.scope,
            "c": self.c,
            "i": self.i,
            "a": self.a,
            "base_score": self.base_score,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "CvssMetrics":
        return CvssMetrics(
            av=data["av"],
            ac=data["ac"],
            pr=data["pr"],
            ui=data["ui"],
            scope=data["scope"],
            c=data["c"],
            i=data["i"],
            a=data["a"],
            base_score=float(data.get("base_score", 0.0)),
        )


class Vulnerability(NamedTuple):
    """A discovered weakness: a CVE id (or CVE-NA) plus where and how it was hit."""

    id: str
    service: str
    port: Optional[int] = None
    description: str = ""
    exploitation_method: str = ""
    cvss: Optional[CvssMetrics] = None
    cvss_source: CvssSource = CvssSource.UNSET

    @property
    def key(self) -> tuple[str, str, Optional[int]]:
        """Identity triple used for deduplication and matching."""
        return (self.id.upper(), self.service.strip().lower(), self.port)

    @property
    def key_str(self) -> str:
        port = "-" if self.port is None else str(self.port)
        return f"{self.id.upper()}@{self.service.strip().lower()}:{port}"

    def has_valid_id(self) -> bool:
        return self.id == CVE_NA or bool(CVE_PATTERN.match(self.id))

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "service": self.service,
            "port": self.port,
            "description": self.description,
            "exploitation_method": self.exploitation_method,
            "cvss": self.cvss.to_dict() if self.cvss else None,
            "cvss_source": self.cvss_source.value,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Vulnerability":
        cvss = data.get("cvss")
        return Vulnerability(
            id=data["id"],
            service=data.get("service", ""),
            port=data.get("port"),
            description=data.get("description", ""),
            exploitation_method=data.get("exploitation_method", ""),
            cvss=CvssMetrics.from_dict(cvss) if cvss else None,
            cvss_source=CvssSource(data.get("cvss_source", "unset")),
        )


def dedupe_findings(findings: list[Vulnerability]) -> list[Vulnerability]:
    """Drop findings repeating an earlier (id, service, port) triple."""
    seen: set[tuple[str, str, Optional[int]]] = set()
    out: list[Vulnerability] = []
    for v in findings:
        if v.key in seen:
            continue
        seen.add(v.key)
        out.append(v)
    return out


class Recommendation(NamedTuple):
    """One remediation action with its engine-computed cost and value."""

    text: str
    target_vuln_ids: tuple[str, ...]
    cost: float = 0.0
    value: float = 0.0
    status: RecommendationStatus = RecommendationStatus.PROPOSED
    rationale: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "text": self.text,
            "target_vuln_ids": list(self.target_vuln_ids),
            "cost": self.cost,
            "value": self.value,
            "status": self.status.value,
            "rationale": self.rationale,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Recommendation":
        return Recommendation(
            text=data["text"],
            target_vuln_ids=tuple(data.get("target_vuln_ids", [])),
            cost=float(data.get("cost", 0.0)),
            value=float(data.get("value", 0.0)),
            status=RecommendationStatus(data.get("status", "proposed")),
            rationale=data.get("rationale", ""),
        )


class ScoreReport(NamedTuple):
    """Benchmark scores for one run against ground truth."""

    s_d: float
    s_r: float
    c: float
    s_overall: float
    found_count: int
    truth_count: int
    run_id: str = ""
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "s_d": self.s_d,
            "s_r": self.s_r,
            "c": self.c,
            "s_overall": self.s_overall,
            "found_count": self.found_count,
            "truth_count": self.truth_count,
            "run_id": self.run_id,
            "notes": list(self.notes),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ScoreReport":
        return ScoreReport(
            s_d=float(data["s_d"]),
            s_r=float(data["s_r"]),
            c=float(data["c"]),
            s_overall=float(data["s_overall"]),
            found_count=int(data["found_count"]),
            truth_count=int(data["truth_count"]),
            run_id=data.get("run_id", ""),
            notes=tuple(data.get("notes", [])),
        )


class CostPolicy(NamedTuple):
    """Cost tier scores plus optional free-text user preference for the evaluator."""

    tier_scores: tuple[tuple[str, float], ...] = (
        ("low", 2.0),
        ("moderate", 5.0),
        ("high", 10.0),
    )
    user_preference_text: Optional[str] = None

    def tier(self, name: str) -> float:
        for tier_name, score in self.tier_scores:
            if tier_name == name.lower():
                return score
        raise KeyError(f"unknown cost tier: {name}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "tier_scores": {name: score for name, score in self.tier_scores},
            "user_preference_text": self.user_preference_text,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "CostPolicy":
        tiers = data.get("tier_scores") or {}
        defaults = {"low": 2.0, "moderate": 5.0, "high": 10.0}
        defaults.update({k.lower(): float(v) for k, v in tiers.items()})
        return CostPolicy(
            tier_scores=tuple(defaults.items()),
            user_preference_text=data.get("user_preference_text"),
        )


class RunConfig(NamedTuple):
    """Everything a pipeline run needs beyond the pluggable backends."""

    target_address: str
    budget_per_vuln: float = 4.0
    cost_policy: CostPolicy = CostPolicy()  # immutable, so one shared default is safe
    retrieval_k: int = 3
    max_iterations: int = 30
    no_new_finding_window: int = 5
    role_models: tuple[tuple[str, str], ...] = ()
    aggregation_mode: AggregationMode = AggregationMode.DIVIDED_BY_THREE
    budget_scope: BudgetScope = BudgetScope.TOTAL

    def validate(self) -> None:
        if not self.target_address:
            raise ValueError("target_address must be set")
        if self.budget_per_vuln < 0:
            raise ValueError("budget_per_vuln must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.retrieval_k < 1:
            raise ValueError("retrieval_k must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return {
            "target_address": self.target_address,
            "budget_per_vuln": self.budget_per_vuln,
            "cost_policy": self.cost_policy.to_dict(),
            "retrieval_k": self.retrieval_k,
            "max_iterations": self.max_iterations,
            "no_new_finding_window": self.no_new_finding_window,
            "role_models": dict(self.role_models),
            "aggregation_mode": self.aggregation_mode.value,
            "budget_scope": self.budget_scope.value,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunConfig":
        return RunConfig(
            target_address=data.get("target_address", ""),
            budget_per_vuln=float(data.get("budget_per_vuln", 4.0)),
            cost_policy=CostPolicy.from_dict(data.get("cost_policy", {})),
            retrieval_k=int(data.get("retrieval_k", 3)),
            max_iterations=int(data.get("max_iterations", 30)),
            no_new_finding_window=int(data.get("no_new_finding_window", 5)),
            role_models=tuple((data.get("role_models") or {}).items()),
            aggregation_mode=AggregationMode(data.get("aggregation_mode", "div3")),
            budget_scope=BudgetScope(data.get("budget_scope", "total")),
        )


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------


def validate_plan(plan: AttackPlan) -> list[str]:
    """Check every plan invariant; returns one message per violation.

    Total function: never raises, an empty list means the plan is well formed.
    """
    violations: list[str] = []
    if not plan.roots:
        violations.append("plan: no root tasks")

    seen_ids: set[str] = set()

    def check(node: TaskNode, parent_id: Optional[str]) -> None:
        if node.id in seen_ids:
            violations.append(f"{node.id}: duplicate id")
        seen_ids.add(node.id)

        if not re.match(r"^\d+(\.\d+)*$", node.id):
            violations.append(f"{node.id}: malformed id")
        elif parent_id is None:
            if "." in node.id:
                violations.append(f"{node.id}: root id must be a single segment")
        else:
            expected_prefix = parent_id + "."
            if not (
                node.id.startswith(expected_prefix)
                and "." not in node.id[len(expected_prefix):]
            ):
                violations.append(f"{node.id}: parent mismatch")

        if node.status is TaskStatus.TODO and node.result_summary is not None:
            violations.append(f"{node.id}: to-do task carries a result summary")
        if node.status is not TaskStatus.TODO and not node.result_summary:
            violations.append(f"{node.id}: missing result summary")
        if node.result_summary is not None and len(node.result_summary) > RESULT_SUMMARY_MAX:
            violations.append(f"{node.id}: result summary exceeds {RESULT_SUMMARY_MAX} chars")
        if not node.description.strip():
            violations.append(f"{node.id}: empty description")

        for child in node.children:
            check(child, node.id)

    for root in plan.roots:
        check(root, None)

    return violations


def clip_summary(text: str, limit: int = RESULT_SUMMARY_MAX) -> str:
    marker = "...[truncated]"
    if len(text) <= limit:
        return text
    return text[: limit - len(marker)] + marker


# ---------------------------------------------------------------------------
# Run artifact serialization
# ---------------------------------------------------------------------------

ARTIFACT_VERSION = 1


class ArtifactParseError(ValueError):
    """Raised when a run artifact cannot be decoded; carries the byte offset."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def serialize_run(
    plan: AttackPlan,
    findings: list[Vulnerability],
    recommendations: list[Recommendation],
    report: Optional[ScoreReport],
    run_id: str = "",
    transcript_ref: str = "",
    created_at: str = "",
) -> bytes:
    """Encode one run as the UTF-8 JSON run-artifact document."""
    doc = {
        "artifact_version": ARTIFACT_VERSION,
        "run_id": run_id,
        "created_at": created_at,
        "transcript_ref": transcript_ref,
        "plan": plan.to_dict(),
        "findings": [v.to_dict() for v in findings],
        "recommendations": [r.to_dict() for r in recommendations],
        "score_report": report.to_dict() if report else None,
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def deserialize_run(
    raw: bytes,
) -> tuple[AttackPlan, list[Vulnerability], list[Recommendation], Optional[ScoreReport]]:
    """Decode a run artifact; inverse of :func:`serialize_run`."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactParseError(f"invalid UTF-8: {exc.reason}", exc.start) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ArtifactParseError(f"invalid JSON: {exc.msg}", offset) from exc
    if not isinstance(doc, dict):
        raise ArtifactParseError("artifact root must be an object")
    try:
        plan = AttackPlan.from_dict(doc["plan"])
        findings = [Vulnerability.from_dict(v) for v in doc.get("findings", [])]
        recommendations = [Recommendation.from_dict(r) for r in doc.get("recommendations", [])]
        report_data = doc.get("score_report")
        report = ScoreReport.from_dict(report_data) if report_data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactParseError(f"artifact schema error: {exc}") from exc
    return plan, findings, recommendations, report
