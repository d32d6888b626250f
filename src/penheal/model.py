"""Core domain types shared by every stage of the pipeline.

All value types subclass :class:`Record`, so each is an immutable
``collections.namedtuple`` whose ``__annotations__`` stay the strings written:
an update is ``value._replace(field=...)``, which returns a new instance, so
plans, findings and reports are safe to share. Values compare equal field by
field, as tuples do. Standard-library data classes are avoided on purpose:
their module loads ``inspect`` and ``ast``, and each decorated class execs
generated methods, a cost every fresh process would pay at start-up; and
``typing.NamedTuple`` compiles each annotation into a ``ForwardRef``.

Every JSON document the program reads or writes goes through one codec,
:func:`encode` and :func:`decode`, exposed on the value types as ``to_dict``
and ``from_dict`` and built from a type's annotations on its first use, and
through this module's writers: :func:`json_document` for indented documents
and :func:`write_json_lines` (one :data:`json_text` line per value), which
:func:`read_json_lines` reads. Fields are written in declaration
order, which is the layout. An ``Enum`` is its value, a nested value type an
object, ``tuple[X, ...]`` a list, ``None`` ``null``, ``Union[int, str]`` (any
builtin scalars) the value as it is, and ``tuple[tuple[str, X], ...]`` an
object; that also decodes from a list of pairs, as host-model ``credentials``
are written. A float field accepts a JSON integer, but no number is read from
a string (``"4"`` or a ``${VAR}`` reference), an int field refuses floats and
booleans, and a union takes only its types exactly. A missing field takes its
default or raises ``KeyError``; unknown keys are ignored. Any other mismatch
raises ``ValueError`` naming the field. Input is parsed by :func:`load_json`,
so JSON nested too deep to read, or holding a lone surrogate escape
(``"\\udc80"``), which no UTF-8 writer takes, is a ``JSONDecodeError`` like
any other malformed input.

The run-artifact layout produced by :func:`serialize_run` is the contract
between CLI invocations.
"""

from __future__ import annotations

import builtins
import enum
import json
import re
import sys
from collections import namedtuple
from functools import partial
from json.encoder import encode_basestring
from math import isfinite
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

# The bundled fixtures, corpus, NVD records and host profile.
DATA_DIR = Path(__file__).parent / "data"
BUNDLED_HOST = DATA_DIR / "hosts" / "metasploitable2.json"

CVE_NA = "CVE-NA"
CVE_ID = r"CVE-\d{4}-\d{4,7}"  # sequence numbers run to 7 digits (CVE-2017-1000117)
NVD_BASE_URL = "https://services.nvd.nist.gov/rest/json/cves/2.0"

RESULT_SUMMARY_MAX = 500
OUTPUT_CAP = 64 * 1024  # characters of a command's output kept


class _RecordType(type):
    """Builds each subclass of :class:`Record` as a namedtuple of its annotated fields and
    sets the rest of the class body on it, the annotations as written among them."""

    def __new__(mcs, name: str, bases: tuple, namespace: dict) -> type:
        if not bases:  # Record itself
            return super().__new__(mcs, name, bases, namespace)
        hints = namespace.get("__annotations__", {})
        defaults = [namespace[field] for field in hints if field in namespace]
        if any(field in namespace for field in list(hints)[: len(hints) - len(defaults)]):
            raise TypeError(f"{name}: a field without a default follows one with a default")
        cls = namedtuple(name, hints, defaults=defaults, module=namespace["__module__"])
        for key in namespace.keys() - hints.keys():  # annotations, methods, docstring, ...
            setattr(cls, key, namespace[key])
        return cls


class Record(metaclass=_RecordType):
    """Base of every value type, as ``typing.NamedTuple`` is, but a subclass keeps its
    annotations as written; ``class Point(Record): x: int; y: int = 0``."""


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


_CODECS: dict[type, tuple[Callable[[Any], dict], Callable[[Any], Any]]] = {}
_NO_DEFAULT = object()
# json.dumps(value, ensure_ascii=False), byte for byte, from one encoder, not one per call.
json_text = json.JSONEncoder(ensure_ascii=False).encode
# A JSON string escape: a pair, a lone surrogate (group 1), or any other; compiled on first use.
_ESCAPE = r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|(u[dD][89a-fA-F]..)|.)"
# Whether text may hold a surrogate escape: one search that skips from backslash to backslash.
_MAY_HOLD_SURROGATE = re.compile(r"\\u[dD]").search


def encode(value: Any) -> dict[str, Any]:
    """The JSON object of a value type, by the rules in the module docstring."""
    return (_CODECS.get(type(value)) or _codec(type(value)))[0](value)


def decode(cls: type, data: Any) -> Any:
    """The ``cls`` value in the JSON object ``data``; KeyError or ValueError if malformed."""
    return (_CODECS.get(cls) or _codec(cls))[1](data)


def load_json(text: str, then: Callable[[Any], Any] = lambda data: data,
              object_pairs_hook: Optional[Callable[[list], Any]] = None) -> Any:
    """``then`` of the JSON value in ``text``; JSONDecodeError if it is malformed.

    Parsing and ``then`` (the codec, say) recurse once per level of nesting, so a
    value nested too deep for either is a JSONDecodeError too, not a RecursionError.
    ``object_pairs_hook`` is ``json.loads``'s; without it, parsing takes the fast path.
    """
    if _MAY_HOLD_SURROGATE(text):  # decoded UTF-8 holds a surrogate only as an escape
        if lone := next((m for m in re.finditer(_ESCAPE, text) if m[1]), None):
            raise json.JSONDecodeError(f"lone surrogate \\{lone[1]}", text, lone.start())
    try:
        return then(json.loads(text, object_pairs_hook=object_pairs_hook))
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


def read_json_lines(path: str | Path, cls: type) -> list:
    """Each nonblank line of a JSON-lines file as ``cls``, in file order.

    Lines are decoded from UTF-8 one at a time, so a bad byte, malformed JSON or a value
    the codec refuses is a ValueError naming ``<path> line N``.
    """
    values = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
                line = raw.decode("utf-8").strip()
                if line:
                    values.append(decode(cls, load_json(line)))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path} line {line_no} is unreadable: {exc}") from exc
    return values


def write_json_lines(path: str | Path, values: Iterable[Any], append: bool = False) -> None:
    """Write, or append, one UTF-8 line of :data:`json_text` per value, streamed."""
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        fh.writelines(json_text(encode(value)) + "\n" for value in values)


def _codec(cls: type) -> tuple[Callable[[Any], dict], Callable[[Any], Any]]:
    """Build and register the (encoder, decoder) pair of a value type on its first use."""
    hints: dict[str, Any] = {}
    for base in reversed(cls.__mro__):  # a validating subclass keeps its base's fields
        hints.update(vars(base).get("__annotations__", {}))
    # Value types live in modules with postponed annotations: each hint is a string.
    namespace = vars(sys.modules[cls.__module__])
    encoders, decoders = [], []
    for i, name in enumerate(cls._fields):
        enc, dec = _converters(hints[name], namespace)
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

    The annotation is read as written, without compiling it: a type name, ``Optional[X]``,
    ``Union[...]`` of builtin scalars, ``tuple[X, ...]`` or ``tuple[tuple[str, X], ...]``.
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
    if text.startswith("Union["):  # of builtin scalars, each taken only as its exact type
        kinds = {vars(builtins)[name] for name in text[6:-1].split(", ")}
        return None, lambda x: x if type(x) in kinds else _check(text, x)  # raises, naming text
    hint = namespace.get(text) or vars(builtins).get(text)
    if hint in (str, int, float, bool):
        return None, partial(_check, hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = {m.value: m for m in hint}  # a dict lookup costs a seventh of hint(x)

        def member(data: Any) -> enum.Enum:
            try:
                return members[data]
            except (KeyError, TypeError):  # TypeError: a list or object is unhashable
                raise ValueError(f"{repr(data)[:60]} is not a valid {hint.__name__}") from None

        return {m: m.value for m in hint}.__getitem__, member
    if isinstance(hint, type) and hasattr(hint, "_fields"):
        return encode, partial(decode, hint)  # looked up per value: TaskNode nests itself
    raise TypeError(f"no JSON codec for the annotation {text!r}")


def _check(kind: type | str, data: Any) -> Any:
    if type(data) is kind:
        return data
    if kind is float and type(data) is int and abs(data) <= sys.float_info.max:
        return float(data)
    raise ValueError(f"expected {getattr(kind, '__name__', kind)}, got {type(data).__name__}")


def _pairs(data: Any) -> Any:
    if type(data) is dict:
        return data.items()
    if type(data) is list and all(type(p) is list and len(p) == 2 for p in data):
        return data
    raise ValueError(f"expected dict or list of pairs, got {type(data).__name__}")


class IdentityEnum(enum.Enum):
    """Base of every penheal enum: a member hashes by identity in C, not by name in Python.

    Members are singletons compared by identity, so this agrees with equality. No output
    changes: with salted ``str`` hashes, set order of members already varied per process.
    """

    __hash__ = object.__hash__


class TaskStatus(IdentityEnum):
    TODO = "to-do"
    COMPLETED = "completed"
    FAILED = "failed"


class CvssSource(IdentityEnum):
    NVD_LOOKUP = "nvd-lookup"
    ESTIMATED = "estimated"
    UNSET = "unset"


class RecommendationStatus(IdentityEnum):
    PROPOSED = "proposed"
    ADOPTED = "adopted"
    DISCARDED = "discarded"


class AggregationMode(IdentityEnum):
    DIVIDED_BY_THREE = "div3"
    SUM = "sum"


class CommandChannel(IdentityEnum):
    SHELL = "shell"
    MSFCONSOLE = "msfconsole"


class Command(Record):
    """One command for a backend; ``engine.parse_commands`` builds each, never blank."""

    raw: str
    channel: CommandChannel = CommandChannel.SHELL


class TaskNode(Record):
    """One task in the layered attack plan (ids like "1", "1.2", "1.2.1")."""

    id: str
    description: str
    status: TaskStatus = TaskStatus.TODO
    result_summary: Optional[str] = None
    children: tuple[TaskNode, ...] = ()


class AttackPlan(Record):
    """Ordered tree of pentest tasks following the standard phase sequence."""

    roots: tuple[TaskNode, ...] = ()


class CvssMetrics(Record):
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

    def vector_string(self) -> str:
        return (
            f"CVSS:3.1/AV:{self.av}/AC:{self.ac}/PR:{self.pr}/UI:{self.ui}"
            f"/S:{self.scope}/C:{self.c}/I:{self.i}/A:{self.a}"
        )


class Vulnerability(Record):
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
        cve_id, service, port = self.key
        return f"{cve_id}@{service}:{'-' if port is None else port}"


def dedupe_findings(findings: list[Vulnerability]) -> list[Vulnerability]:
    """Drop findings repeating an earlier (id, service, port) triple."""
    seen: set[tuple[str, str, Optional[int]]] = set()
    out: list[Vulnerability] = []
    for v in findings:
        key = v.key
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


class Recommendation(Record):
    """One remediation action with its engine-computed cost and value."""

    text: str
    target_vuln_ids: tuple[str, ...]
    cost: float = 0.0
    value: float = 0.0
    status: RecommendationStatus = RecommendationStatus.PROPOSED
    rationale: str = ""


class ScoreReport(Record):
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
MAX_COST = 10.0  # a cost the evaluator gives as a number is clamped to 0..MAX_COST


class CostPolicy(Record):
    """Cost tier scores plus optional free-text user preference for the evaluator."""

    tier_scores: tuple[tuple[str, float], ...] = DEFAULT_COST_TIERS
    user_preference_text: Optional[str] = None

    def tiers(self) -> dict[str, float]:
        """Score by lowercased tier name; a tier the policy leaves out keeps its default."""
        return dict(DEFAULT_COST_TIERS) | {name.lower(): s for name, s in self.tier_scores}


# The settings types live here, not in the CLI module: the codec reads the names in a
# value type's module, and a profiler running the CLI as __main__ takes that slot.
class LlmSettings(Record):
    base_url: str = ""
    api_key: Optional[str] = None


class NvdSettings(Record):
    fixture_dir: Optional[str] = None
    cache_dir: Optional[str] = None  # default: nvd-cache in the out dir
    base_url: str = NVD_BASE_URL


class RunConfig(Record):
    """The config document: the run's target, budget and limits, and how the CLI builds it."""

    target_address: str = ""  # required, but validate() names it when missing
    budget_per_vuln: float = 4.0
    cost_policy: CostPolicy = CostPolicy()  # immutable, so one shared default is safe
    retrieval_k: int = 3
    max_iterations: int = 30
    no_new_finding_window: int = 5
    role_models: tuple[tuple[str, str], ...] = ()
    aggregation_mode: AggregationMode = AggregationMode.DIVIDED_BY_THREE
    mode: str = "hermetic"  # or "live"
    out_dir: str = "out"
    fixtures: Optional[str] = None
    kb_dir: Optional[str] = None
    truth: Optional[str] = None
    host_model: Optional[str] = None
    llm: LlmSettings = LlmSettings()
    nvd: NvdSettings = NvdSettings()

    def validate(self) -> None:
        if not self.target_address:
            raise ValueError("target_address must be set")
        if not (isfinite(self.budget_per_vuln) and self.budget_per_vuln >= 0):
            raise ValueError(f"budget_per_vuln must be finite and >= 0, not {self.budget_per_vuln}")
        for i, (name, score) in enumerate(self.cost_policy.tier_scores):
            if name.lower() not in dict(DEFAULT_COST_TIERS):  # the evaluator is offered no other
                raise ValueError(f"unknown cost tier {name!r} (expected low, moderate or high)")
            if name.lower() in {other.lower() for other, _ in self.cost_policy.tier_scores[:i]}:
                raise ValueError(f"tier_scores names {name.lower()} twice (case is ignored)")
            if not 0 <= score <= MAX_COST:  # false for nan too
                raise ValueError(f"cost tier {name} must score 0 to {MAX_COST:g}, not {score}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.retrieval_k < 1:
            raise ValueError("retrieval_k must be >= 1")
        if self.no_new_finding_window < 1:
            raise ValueError("no_new_finding_window must be >= 1")


for _value_type in (TaskNode, AttackPlan, CvssMetrics, Vulnerability, Recommendation,
                    ScoreReport, CostPolicy, RunConfig):
    _value_type.to_dict, _value_type.from_dict = encode, classmethod(decode)
del _value_type


def clip_summary(text: str, limit: int = RESULT_SUMMARY_MAX) -> str:
    marker = "...[truncated]"
    if len(text) <= limit:
        return text
    return text[: limit - len(marker)] + marker


def keep_first(items: list, bound: int, what: str) -> tuple[list, list[str]]:
    """The first ``bound`` items of a reply's list, in order, and one warning if more came."""
    extra = len(items) - bound
    return items[:bound], [f"{extra} {what} past the first {bound} ignored"] if extra > 0 else []


# ---------------------------------------------------------------------------
# Run artifact serialization
# ---------------------------------------------------------------------------

ARTIFACT_VERSION = 1


class ArtifactParseError(ValueError):
    """Raised when a run artifact cannot be decoded; a UTF-8 or JSON error names its offset."""


class _Artifact(Record):
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
    return (json_document(doc) + "\n").encode("utf-8")


# The text of a JSON scalar by its exact type, as json writes it (a float by json's floatstr).
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: lambda x: (float.__repr__(x) if isfinite(x)
                      else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity")}
_JSON_TYPES = (str, int, float, list, tuple, dict)  # in json's isinstance order


def json_document(value: Any, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` at ``indent`` (a newline and spaces),
    without json's pure-Python encoder; a tuple or a subclass goes by json's isinstance order."""
    kind = type(value)
    if kind is not dict and kind is not list:  # a scalar, a tuple or a subclass
        if kind not in _SCALARS:
            kind = next(filter(partial(isinstance, value), _JSON_TYPES), None)
        if kind in _SCALARS:
            return _SCALARS[kind](value)
        if kind is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner, scalar = indent + "  ", _SCALARS.get
    if kind is dict:
        return "{" + inner + ("," + inner).join([
            f"{encode_basestring(k)}: {s(v) if (s := scalar(type(v))) else json_document(v, inner)}"
            for k, v in value.items()]) + indent + "}"
    return "[" + inner + ("," + inner).join([
        s(v) if (s := scalar(type(v))) else json_document(v, inner) for v in value]) + indent + "]"


def deserialize_run(
    raw: bytes,
) -> tuple[AttackPlan, list[Vulnerability], list[Recommendation], Optional[ScoreReport]]:
    """Decode a run artifact; inverse of :func:`serialize_run`."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactParseError(f"invalid UTF-8: {exc.reason} (byte offset {exc.start})") from exc
    try:
        artifact = load_json(text, partial(decode, _Artifact))
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ArtifactParseError(f"invalid JSON: {exc.msg} (byte offset {offset})") from exc
    except (KeyError, ValueError) as exc:
        raise ArtifactParseError(f"artifact schema error: {exc}") from exc
    return (artifact.plan, list(artifact.findings), list(artifact.recommendations),
            artifact.score_report)
