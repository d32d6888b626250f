"""Second pipeline stage: from findings to a budget-optimal fix list.

Each finding is enriched with CVSS data (database lookup when the CVE is
public, otherwise the estimator deduces a vector). The advisor proposes
candidate recommendations per finding, the evaluator classifies each one's
effectiveness and cost tier, and the engine converts those classifications
into numbers mechanically: the model judges, the arithmetic is ours. An
exact group-knapsack pass then adopts at most one recommendation per
finding under the budget.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from . import cvss
from .gateway import LIGHT_CHAR_BUDGET, AgentRole, Gateway
from .knapsack import solve_group_knapsack
from .model import (
    CVE_NA,
    DEFAULT_COST_TIERS,
    MAX_COST,
    CostPolicy,
    CvssSource,
    Recommendation,
    RecommendationStatus,
    Record,
    RunConfig,
    Vulnerability,
    clip_summary,
    dedupe_findings,
    keep_first,
)
from .nvd import CveNotFound, FixtureNvdClient, NvdError
from .prompts import (
    VALUE_RULES_TEXT,
    ask,
    cost_rules_text,
    format_vulns_inline,
    render_prompt,
)


class RecommendationGroup(Record):
    """All candidate fixes generated for one finding; at most one gets adopted."""

    candidates: tuple[Recommendation, ...]


class RemediationResult(Record):
    groups: list[RecommendationGroup]
    warnings: list[str]

    @property
    def selected(self) -> list[Recommendation]:
        """The adopted candidates, in group order."""
        return [c for g in self.groups for c in g.candidates
                if c.status is RecommendationStatus.ADOPTED]


# ---------------------------------------------------------------------------
# CVSS enrichment
# ---------------------------------------------------------------------------


def estimate_vector(
    finding: Vulnerability, context: str, gateway: Gateway
) -> tuple[cvss.CvssMetrics, list[str]]:
    """Ask the estimator for a vector string; fall back conservatively.

    One re-prompt with the parse error appended, then the documented
    conservative default vector.
    """
    finding_text = f"{finding.id} on {finding.service}" + (
        f" port {finding.port}" if finding.port is not None else ""
    )
    variables = {"finding": finding_text,  # half the light budget: the task turn is sent whole
                 "context": clip_summary(context, LIGHT_CHAR_BUDGET // 2) or "(none recorded)"}
    metrics, errors = ask(gateway, AgentRole.ESTIMATOR, "estimate", variables,
                          parse=_parse_vector_reply)
    key = finding.key_str[:60]
    warnings = [f"{key}: estimator vector rejected: {e}" for e in errors]
    if metrics is None:
        warnings.append(f"{key}: applied conservative default vector")
        metrics = cvss.parse_vector(cvss.CONSERVATIVE_DEFAULT_VECTOR)
    return metrics, warnings


def _parse_vector_reply(reply: str) -> tuple[Optional[cvss.CvssMetrics], list[str]]:
    """The vector in an estimator reply: its first line naming one, else the whole reply."""
    text = reply.strip()
    for line in reply.splitlines():
        if start := re.search("(?ai)CVSS:", line):  # not in line.upper(): "ß".upper() is "SS"
            text = line[start.start():].strip()
            break
    try:
        return cvss.parse_vector(text.strip("'\"`")), []
    except cvss.VectorParseError as exc:
        return None, [str(exc)]


def enrich_findings(
    findings: list[Vulnerability],
    gateway: Gateway,
    nvd_client: FixtureNvdClient,
) -> tuple[list[Vulnerability], list[str]]:
    """Attach CVSS metrics to every finding (lookup first, estimator fallback).

    Supplied metrics are kept only as the scored parse of their own vector.
    """
    enriched: list[Vulnerability] = []
    warnings: list[str] = []
    for finding in findings:
        if finding.cvss is not None:
            try:
                if cvss.parse_vector(finding.cvss.vector_string()) == finding.cvss:
                    enriched.append(finding)
                    continue
            except cvss.VectorParseError:
                pass
            warnings.append(f"{finding.key_str[:60]}: supplied CVSS is not a scored "
                            f"v3.1 vector, enriching anew")
        metrics = None
        source = CvssSource.ESTIMATED
        description = finding.description
        if finding.id != CVE_NA:
            try:
                record = nvd_client.lookup(finding.id)
                metrics = record.metrics
                source = CvssSource.NVD_LOOKUP
                description = description or record.description
            except CveNotFound:
                warnings.append(f"{finding.id[:60]}: not in the CVE database, estimating")
            except NvdError as exc:
                warnings.append(f"{finding.id[:60]}: lookup failed ({exc}), estimating")
            except ValueError:  # not a CVE id: estimated without a lookup
                pass
        if metrics is None:
            context = " ".join(
                part for part in (finding.description, finding.exploitation_method) if part
            )
            metrics, est_warnings = estimate_vector(finding, context, gateway)
            warnings.extend(est_warnings)
        enriched.append(
            finding._replace(cvss=metrics, cvss_source=source, description=description)
        )
    return enriched, warnings


# ---------------------------------------------------------------------------
# Advisor
# ---------------------------------------------------------------------------

_NUMBERED_ITEM = re.compile(r"^\s*(\d+)[.)]\s+(.*\S)\s*$")
MAX_ADVISOR_ITEMS = 8  # candidates kept from one advisor reply, in reply order; each costs a call


def parse_numbered_list(text: str) -> list[str]:
    """Parse "1. ..." items; unnumbered lines continue the previous item."""
    items: list[str] = []
    for line in text.splitlines():
        match = _NUMBERED_ITEM.match(line)
        if match:
            items.append(match.group(2).strip())
        elif items and line.strip():
            items[-1] += " " + line.strip()
    return items


def advise(
    findings: list[Vulnerability], gateway: Gateway
) -> tuple[list[RecommendationGroup], list[str]]:
    """One advisor call per finding, parsed into a group of its first ``MAX_ADVISOR_ITEMS``."""
    groups: list[RecommendationGroup] = []
    warnings: list[str] = []
    for finding in findings:
        key = finding.key_str
        score = finding.cvss.base_score if finding.cvss else 0.0
        vector = finding.cvss.vector_string() if finding.cvss else "unknown"
        variables = {
            "finding": key,
            "score": f"{score}",
            "vector": vector,
            "description": finding.description or "(no description)",
        }
        items, _ = ask(gateway, AgentRole.ADVISOR, "advise", variables,
                       parse=lambda reply: (parse_numbered_list(reply), []))
        if not items:
            warnings.append(f"{key[:60]}: advisor output unparseable, group dropped")
            continue
        items, bound_warnings = keep_first(items, MAX_ADVISOR_ITEMS, "advisor item(s)")
        warnings.extend(f"{key[:60]}: {warning}" for warning in bound_warnings)
        groups.append(RecommendationGroup(candidates=tuple(
            Recommendation(text=item, target_vuln_ids=(key,)) for item in items)))
    return groups, warnings


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

# Keywords are ASCII ((?a:...)): "partıal" (dotless i) or "hıgh" makes no effect or cost line.
_EFFECT_LINE = re.compile(
    r"^\s*(?a:effect)\s*:\s*"
    r"(?:(?a:(full|zero))|(?a:(partial|negative))\s+(\d+(?:\.\d+)?)\s*%?)\s*$",
    re.IGNORECASE,
)
_COST_LINE = re.compile(
    rf"^\s*(?a:cost)\s*:\s*((?a:{'|'.join(dict(DEFAULT_COST_TIERS))})|(\d+(?:\.\d+)?))\s*$",
    re.IGNORECASE,
)
_TARGETS_LINE = re.compile(r"^\s*(?a:targets)\s*:\s*(.+?)\s*$", re.IGNORECASE)
MAX_EXTRA_TARGETS = 8  # target keys kept from one reply, in reply order


class EvaluationVerdict(Record):
    effect: float  # share of the targets' scores: full 1, partial k/100, zero 0, negative -k/100
    cost: float
    extra_target_keys: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()  # keep_first's, for a reply naming over MAX_EXTRA_TARGETS


def parse_evaluation(reply: str, tiers: dict[str, float]) -> EvaluationVerdict:
    """The verdict of the last effect, cost and targets lines; k is clamped to 0..100."""
    effect: Optional[float] = None
    cost: Optional[float] = None
    extra: list[str] = []
    for line in reply.splitlines():
        effect_match = _EFFECT_LINE.match(line)
        if effect_match:
            word, scaled, k = effect_match.groups()
            k = min(max(float(k or 0), 0.0), 100.0)
            shares = {"full": 1.0, "zero": 0.0, "partial": k / 100.0, "negative": -k / 100.0}
            effect = shares.get((word or scaled).lower())  # None, an unparseable reply
            continue
        cost_match = _COST_LINE.match(line)
        if cost_match:
            if cost_match.group(2) is not None:
                cost = min(max(float(cost_match.group(2)), 0.0), MAX_COST)
            else:
                cost = tiers.get(cost_match.group(1).lower())  # None, an unparseable reply
            continue
        targets_match = _TARGETS_LINE.match(line)
        if targets_match:
            extra = [t.strip() for t in targets_match.group(1).split(",") if t.strip()]
    if effect is None or cost is None:
        raise ValueError(f"unparseable evaluation reply: {reply[:60]!r}")
    extra, warnings = keep_first(extra, MAX_EXTRA_TARGETS, "target key(s)")
    # The cost has 0.1 granularity, so the knapsack scaling is exact.
    return EvaluationVerdict(effect, round(cost, 1), tuple(extra), tuple(warnings))


def compute_value(verdict: EvaluationVerdict, target_scores: list[float]) -> float:
    """Deterministic value from the parsed share: the model never does arithmetic.

    The scores are summed exactly, in whole tenths (a CVSS score has one
    decimal; any further digits are dropped), and the result is clamped to
    [-sum, +sum] so rounding can never push it past the mechanical bounds:
    both ends are on the knapsack's 0.01 grid.
    """
    total = sum(int(score * 10) for score in target_scores) / 10
    return min(max(round(verdict.effect * total, 2), -total), total)


def _fold_key(key: str) -> str:
    """A target key folded as ``Vulnerability.key`` folds case: id upper, service and port lower."""
    cve_id, at, rest = key.partition("@")
    return cve_id.upper() + at + rest.lower()


class EvaluatorContext:
    """What every evaluate call over one finding list and cost policy shares, built once.

    The system turn holds every finding plus the value and cost rules; ``tiers``
    is the run's one cost-tier table, which the replies are read against. Target
    keys resolve by finding key first, case folded by ``_fold_key``, then by CVE
    id in any case (never CVE-NA); each lookup takes the first finding that matches.
    """

    def __init__(self, findings: list[Vulnerability], policy: CostPolicy):
        self.tiers = policy.tiers()
        self.system = render_prompt(
            AgentRole.EVALUATOR,
            {
                "vulns": format_vulns_inline(findings),
                "value_def": VALUE_RULES_TEXT,
                "cost_def": cost_rules_text(self.tiers, policy.user_preference_text),
            },
            "system",
        )
        self.by_key: dict[str, tuple[str, Vulnerability]] = {}
        self.by_id: dict[str, tuple[str, Vulnerability]] = {}
        for f in findings:
            key = f.key_str
            target = (key, f)
            self.by_key.setdefault(_fold_key(key), target)
            if f.id.upper() != CVE_NA:
                self.by_id.setdefault(f.id.upper(), target)

    def resolve(self, keys: Iterable[str]) -> tuple[list[tuple[str, Vulnerability]], list[str]]:
        """The distinct (key, finding) pairs ``keys`` name, in order, and the keys naming none."""
        resolved: list[tuple[str, Vulnerability]] = []
        unknown: list[str] = []
        for key in keys:
            match = self.by_key.get(_fold_key(key)) or self.by_id.get(key.upper())
            if match is None:
                unknown.append(key)
            elif match not in resolved:
                resolved.append(match)
        return resolved, unknown


def evaluate(
    recommendation: Recommendation, context: EvaluatorContext, gateway: Gateway, number: int = 1
) -> tuple[Recommendation, list[str]]:
    """Score one recommendation: evaluator classifies, the engine computes.

    Returns the recommendation with cost, value, rationale and (possibly
    widened) target list filled in. Each warning starts with the candidate's
    finding key and ``number``, its place in its group.
    """
    label = f"{recommendation.target_vuln_ids[0][:60]} candidate {number}"

    def parse(reply: str) -> tuple[Optional[tuple[EvaluationVerdict, str]], list[str]]:
        try:
            return (parse_evaluation(reply, context.tiers), reply.strip()), []
        except ValueError as exc:
            return None, [f"{label}: {exc}"]

    parsed, warnings = ask(gateway, AgentRole.EVALUATOR, "evaluate",
                           {"recommendation": recommendation.text},
                           system=context.system, parse=parse)
    if parsed is None:
        warnings.append(f"{label}: evaluation failed twice; "
                        "defaulting to zero value, moderate cost")
        return (
            recommendation._replace(
                cost=round(context.tiers["moderate"], 1),  # the 0.1 grid of parsed costs
                value=0.0,
                rationale="evaluation unparseable; conservative default applied",
            ),
            warnings,
        )

    verdict, rationale = parsed
    warnings.extend(f"{label}: {warning}" for warning in verdict.warnings)
    targets, unknown = context.resolve(recommendation.target_vuln_ids + verdict.extra_target_keys)
    if unknown:
        warnings.append(f"{label}: evaluator named {len(unknown)} unknown target(s), "
                        f"the first {unknown[0][:60]!r}; ignored")
    scores = [t.cvss.base_score if t.cvss else 0.0 for _, t in targets]
    return (
        recommendation._replace(
            cost=verdict.cost,
            value=compute_value(verdict, scores),
            target_vuln_ids=tuple([key for key, _ in targets]),
            rationale=rationale,
        ),
        warnings,
    )


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def select(
    groups: list[RecommendationGroup], budget: float, warnings: Iterable[str] = ()
) -> RemediationResult:
    """Adopt the value-maximizing feasible set, at most one per group; adds no warnings."""
    picked = set(solve_group_knapsack(
        [[(c.cost, c.value) for c in g.candidates] for g in groups], budget))
    adopted, discarded = RecommendationStatus.ADOPTED, RecommendationStatus.DISCARDED
    return RemediationResult([
        group._replace(candidates=tuple(
            c._replace(status=adopted if (g, i) in picked else discarded)
            for i, c in enumerate(group.candidates)))
        for g, group in enumerate(groups)
    ], list(warnings))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def remediate(
    findings: list[Vulnerability],
    config: RunConfig,
    gateway: Gateway,
    nvd_client: FixtureNvdClient,
) -> RemediationResult:
    """Enrich, advise, evaluate and select; never aborts on a single finding."""
    findings = dedupe_findings(findings)
    if not findings:
        return RemediationResult(groups=[], warnings=["nothing to remediate: no findings"])

    enriched, warnings = enrich_findings(findings, gateway, nvd_client)
    groups, advise_warnings = advise(enriched, gateway)
    warnings.extend(advise_warnings)

    context = EvaluatorContext(enriched, config.cost_policy)
    scored_groups: list[RecommendationGroup] = []
    for group in groups:
        scored: list[Recommendation] = []
        for number, candidate in enumerate(group.candidates, 1):
            evaluated, eval_warnings = evaluate(candidate, context, gateway, number)
            warnings.extend(eval_warnings)
            scored.append(evaluated)
        scored_groups.append(group._replace(candidates=tuple(scored)))

    return select(scored_groups, config.budget_per_vuln * len(enriched), warnings)


def format_selection_report(groups: list[RecommendationGroup]) -> str:
    """Human-readable adopted/discarded listing with costs and values."""
    lines = []
    counter = 0
    for group in groups:
        for candidate in group.candidates:
            counter += 1
            tag = "Adopted" if candidate.status is RecommendationStatus.ADOPTED else "Discarded"
            lines.append(f"{counter}. [{tag}] {candidate.text}")
            lines.append(f"   Cost: {candidate.cost:.1f}, Value: {candidate.value:.1f}")
    return "\n".join(lines)
