"""Core domain types shared by every stage of the pipeline.

All value types are immutable ``typing.NamedTuple`` classes: an update is
``value._replace(field=...)``, which returns a new instance, so plans, findings
and reports are safe to share. Values compare equal field by field, as tuples
do. Standard-library data classes are avoided on purpose: their module loads
``inspect`` and ``ast``, and each decorated class execs generated methods, a
cost every fresh process would pay at start-up.

Every JSON document the program reads or writes goes through one codec,
:func:`encode` and :func:`decode`, exposed on the value types as ``to_dict``
and ``from_dict`` and built from a type's annotations on its first use.
Fields are written in declaration order, which is the layout. An ``Enum`` is
its value, a nested value type an object, ``tuple[X, ...]`` a list, ``None``
``null``, and ``tuple[tuple[str, X], ...]`` an object; that also decodes from
a list of pairs, as host-model ``credentials`` are written. A float field
accepts a JSON integer, but no number is read from a string (``"4"`` or a
``${VAR}`` reference), and an int field refuses floats and booleans. A
missing field takes its default or raises ``KeyError``; unknown keys are
ignored. Any other mismatch raises ``ValueError`` naming the field. Input
is parsed by :func:`load_json`, so JSON nested too deep to read is a
``JSONDecodeError`` like any other malformed input.

The run-artifact layout produced by :func:`serialize_run` is the contract
between CLI invocations.
"""

from __future__ import annotations

import builtins
import json
import re
import sys
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple, Optional

CVE_PATTERN = re.compile(r"^CVE-\d{4}-\d{4,}$")
CVE_NA = "CVE-NA"
NVD_BASE_URL = "https://services.nvd.nist.gov/rest/json/cves/2.0"

RESULT_SUMMARY_MAX = 500


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


_CODECS: dict[type, tuple[Callable[[Any], dict], Callable[[Any], Any]]] = {}
_NO_DEFAULT = object()


def encode(value: Any) -> dict[str, Any]:
    """The JSON object of a value type, by the rules in the module docstring."""
    return (_CODECS.get(type(value)) or _codec(type(value)))[0](value)


def decode(cls: type, data: Any) -> Any:
    """The ``cls`` value in the JSON object ``data``; KeyError or ValueError if malformed."""
    return (_CODECS.get(cls) or _codec(cls))[1](data)


def load_json(text: str, then: Callable[[Any], Any] = lambda data: data) -> Any:
    """``then`` of the JSON value in ``text``; JSONDecodeError if it is malformed.

    Parsing and ``then`` (the codec, say) recurse once per level of nesting, so a
    value nested too deep for either is a JSONDecodeError too, not a RecursionError.
    """
    try:
        return then(json.loads(text))
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


def _codec(cls: type) -> tuple[Callable[[Any], dict], Callable[[Any], Any]]:
    """Build and register the (encoder, decoder) pair of a value type on its first use.

    It is registered only once built: threads racing here each build one and
    either serves, so none is ever seen half built.
    """
    hints: dict[str, Any] = {}
    for base in reversed(cls.__mro__):  # a validating subclass keeps its base's fields
        hints.update(vars(base).get("__annotations__", {}))
    # Value types live in modules with postponed annotations: each hint is a ForwardRef.
    namespace = vars(sys.modules[cls.__module__])
    encoders, decoders = [], []
    for i, name in enumerate(cls._fields):
        enc, dec = _converters(hints[name].__forward_arg__, namespace)
        if enc is not None:  # the other fields are written as they are
            encoders.append((name, i, enc))
        decoders.append((name, cls._field_defaults.get(name, _NO_DEFAULT), dec))

    def encode_fields(value: Any) -> dict[str, Any]:
        data = dict(zip(cls._fields, value))
        for name, i, enc in encoders:
            if value[i] is not None:
                data[name] = enc(value[i])
        return data

    def decode_fields(data: Any) -> Any:
        _check(dict, data)
        values = []
        for name, default, dec in decoders:
            if name in data:
                try:
                    values.append(dec(data[name]))
                except ValueError as exc:
                    raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
            elif default is _NO_DEFAULT:
                raise KeyError(f"{cls.__name__}.{name}")
            else:
                values.append(default)
        return cls(*values)

    codec = _CODECS[cls] = encode_fields, decode_fields
    return codec


def _converters(text: str, namespace: dict[str, Any]) -> tuple[Optional[Callable], Callable]:
    """(encoder of a non-null value, or None to write it as it is; decoder) of an annotation.

    The annotation is read as written, without compiling it: a type name,
    ``Optional[X]``, ``tuple[X, ...]`` or ``tuple[tuple[str, X], ...]``.
    """
    if text.startswith("Optional["):
        enc, dec = _converters(text[9:-1], namespace)
        return enc, lambda x: None if x is None else dec(x)
    if text.startswith("tuple[tuple[str, "):
        enc, dec = _converters(text[17:-7], namespace)
        return ((lambda v: {k: enc(x) for k, x in v}) if enc else dict,
                lambda x: tuple((_check(str, k), dec(v)) for k, v in _pairs(x)))
    if text.startswith("tuple["):
        enc, dec = _converters(text[6:-6], namespace)
        return ((lambda v: [enc(e) for e in v]) if enc else list,
                lambda x: tuple(map(dec, _check(list, x))))
    hint = namespace.get(text) or vars(builtins).get(text)
    if hint in (str, int, float, bool):
        return None, partial(_check, hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}  # a dict lookup costs a seventh of hint(x)

        def member(data: Any) -> Enum:
            try:
                return members[data]
            except (KeyError, TypeError):  # TypeError: a list or object is unhashable
                raise ValueError(f"{data!r} is not a valid {hint.__name__}") from None

        return {m: m.value for m in hint}.__getitem__, member
    if isinstance(hint, type) and hasattr(hint, "_fields"):
        return encode, partial(decode, hint)  # looked up per value: TaskNode nests itself
    raise TypeError(f"no JSON codec for the annotation {text!r}")


def _check(kind: type, data: Any) -> Any:
    if type(data) is kind:
        return data
    if kind is float and type(data) is int and abs(data) <= sys.float_info.max:
        return float(data)
    raise ValueError(f"expected {kind.__name__}, got {type(data).__name__}")


def _pairs(data: Any) -> Any:
    if type(data) is dict:
        return data.items()
    if type(data) is list and all(type(p) is list and len(p) == 2 for p in data):
        return data
    raise ValueError(f"expected dict or list of pairs, got {type(data).__name__}")


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
    children: tuple[TaskNode, ...] = ()

    def walk(self) -> Iterator["TaskNode"]:
        """Depth-first traversal of this node and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


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


DEFAULT_COST_TIERS = (("low", 2.0), ("moderate", 5.0), ("high", 10.0))


class CostPolicy(NamedTuple):
    """Cost tier scores plus optional free-text user preference for the evaluator."""

    tier_scores: tuple[tuple[str, float], ...] = DEFAULT_COST_TIERS
    user_preference_text: Optional[str] = None

    def tiers(self) -> dict[str, float]:
        """Score by lowercased tier name; a tier the policy leaves out keeps its default."""
        return dict(DEFAULT_COST_TIERS) | {name.lower(): s for name, s in self.tier_scores}

    def tier(self, name: str) -> float:
        try:
            return self.tiers()[name.lower()]
        except KeyError:
            raise KeyError(f"unknown cost tier: {name}") from None


class RunConfig(NamedTuple):
    """Everything a pipeline run needs beyond the pluggable backends."""

    target_address: str = ""  # required, but validate() names it when missing
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


# The settings types live here, not in the CLI module: the codec reads the names in a
# value type's module, and a profiler running the CLI as __main__ takes that slot.
class LlmSettings(NamedTuple):
    base_url: str = ""
    api_key: Optional[str] = None


class NvdSettings(NamedTuple):
    mode: str = "live"  # or "fixture"
    fixture_dir: Optional[str] = None
    cache_dir: Optional[str] = None  # default: nvd-cache in the out dir
    base_url: str = NVD_BASE_URL


class CliSettings(NamedTuple):
    """The config keys the CLI reads itself; the RunConfig fields are the others."""

    mode: str = "hermetic"  # or "live"
    out_dir: str = "out"
    fixtures: Optional[str] = None
    kb_dir: Optional[str] = None
    truth: Optional[str] = None
    host_model: Optional[str] = None
    llm: LlmSettings = LlmSettings()
    nvd: NvdSettings = NvdSettings()


for _value_type in (TaskNode, AttackPlan, CvssMetrics, Vulnerability, Recommendation,
                    ScoreReport, CostPolicy, RunConfig):
    _value_type.to_dict, _value_type.from_dict = encode, classmethod(decode)


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


class _Artifact(NamedTuple):
    artifact_version: int
    run_id: str
    created_at: str
    transcript_ref: str
    plan: AttackPlan
    findings: tuple[Vulnerability, ...] = ()
    recommendations: tuple[Recommendation, ...] = ()
    score_report: Optional[ScoreReport] = None


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
    doc = encode(_Artifact(ARTIFACT_VERSION, run_id, created_at, transcript_ref, plan,
                           tuple(findings), tuple(recommendations), report))
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
        artifact = load_json(text, partial(decode, _Artifact))
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ArtifactParseError(f"invalid JSON: {exc.msg}", offset) from exc
    except (KeyError, ValueError) as exc:
        raise ArtifactParseError(f"artifact schema error: {exc}") from exc
    return (artifact.plan, list(artifact.findings), list(artifact.recommendations),
            artifact.score_report)
