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
from typing import Iterable, NamedTuple, Optional

from . import cvss
from .gateway import AgentRole, Gateway
from .knapsack import solve_group_knapsack
from .model import (
    CVE_NA,
    BudgetScope,
    CostPolicy,
    CvssSource,
    Recommendation,
    RecommendationStatus,
    RunConfig,
    Vulnerability,
    dedupe_findings,
)
from .nvd import CveNotFound, FixtureNvdClient, LiveNvdClient, NvdError
from .prompts import (
    VALUE_RULES_TEXT,
    ask,
    cost_rules_text,
    format_vulns_inline,
    render_prompt,
)


class RemediationError(Exception):
    pass


class RecommendationGroup(NamedTuple):
    """All candidate fixes generated for one finding; at most one gets adopted."""

    vuln_key: str
    candidates: tuple[Recommendation, ...]


class RemediationResult(NamedTuple):
    groups: list[RecommendationGroup]
    selected: list[Recommendation]
    budget: float
    budget_used: float
    findings: list[Vulnerability]
    warnings: list[str]


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
    variables = {"finding": finding_text, "context": context or "(none recorded)"}
    metrics, errors = ask(gateway, AgentRole.ESTIMATOR,
                          render_prompt(AgentRole.ESTIMATOR, variables, "estimate"),
                          parse=_parse_vector_reply)
    warnings = [f"{finding.key_str}: estimator vector rejected: {e}" for e in errors]
    if metrics is None:
        warnings.append(f"{finding.key_str}: applied conservative default vector")
        metrics = cvss.parse_vector(cvss.CONSERVATIVE_DEFAULT_VECTOR)
    return metrics, warnings


def _parse_vector_reply(reply: str) -> tuple[Optional[cvss.CvssMetrics], list[str]]:
    """The vector in an estimator reply: its first line naming one, else the whole reply."""
    text = reply.strip()
    for line in reply.splitlines():
        if "CVSS:" in line.upper():
            text = line[line.upper().index("CVSS:"):].strip()
            break
    try:
        return cvss.parse_vector(text.strip("'\"`")), []
    except cvss.VectorParseError as exc:
        return None, [str(exc)]


def enrich_findings(
    findings: list[Vulnerability],
    gateway: Gateway,
    nvd_client: Optional[FixtureNvdClient | LiveNvdClient] = None,
) -> tuple[list[Vulnerability], list[str]]:
    """Attach CVSS metrics to every finding (lookup first, estimator fallback)."""
    client = nvd_client or FixtureNvdClient()
    enriched: list[Vulnerability] = []
    warnings: list[str] = []
    for finding in findings:
        if finding.cvss is not None:
            enriched.append(finding)
            continue
        metrics = None
        source = CvssSource.ESTIMATED
        description = finding.description
        if finding.id != CVE_NA and finding.has_valid_id():
            try:
                record = client.lookup(finding.id)
                metrics = record.metrics
                source = CvssSource.NVD_LOOKUP
                description = description or record.description
            except CveNotFound:
                warnings.append(f"{finding.id}: not in the CVE database, estimating")
            except NvdError as exc:
                warnings.append(f"{finding.id}: lookup failed ({exc}), estimating")
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
    """One advisor call per finding, parsed into a candidate group."""
    if not findings:
        raise RemediationError("advise requires at least one finding")
    groups: list[RecommendationGroup] = []
    warnings: list[str] = []
    for finding in findings:
        score = finding.cvss.base_score if finding.cvss else 0.0
        vector = finding.cvss.vector_string() if finding.cvss else "unknown"
        variables = {
            "finding": finding.key_str,
            "score": f"{score}",
            "vector": vector,
            "description": finding.description or "(no description)",
        }
        items, _ = ask(gateway, AgentRole.ADVISOR,
                       render_prompt(AgentRole.ADVISOR, variables, "advise"),
                       parse=lambda reply: (parse_numbered_list(reply), []))
        if not items:
            warnings.append(f"{finding.key_str}: advisor output unparseable, group dropped")
            continue
        groups.append(
            RecommendationGroup(
                vuln_key=finding.key_str,
                candidates=tuple(
                    Recommendation(text=item, target_vuln_ids=(finding.key_str,))
                    for item in items
                ),
            )
        )
    return groups, warnings


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

_EFFECT_LINE = re.compile(
    r"^\s*effect\s*:\s*(full|zero|partial\s+(\d+(?:\.\d+)?)\s*%?|negative\s+(\d+(?:\.\d+)?)\s*%?)\s*$",
    re.IGNORECASE,
)
_COST_LINE = re.compile(
    r"^\s*cost\s*:\s*(low|moderate|high|(\d+(?:\.\d+)?))\s*$", re.IGNORECASE
)
_TARGETS_LINE = re.compile(r"^\s*targets\s*:\s*(.+?)\s*$", re.IGNORECASE)


class EvaluationVerdict(NamedTuple):
    effect_class: str  # full | partial | zero | negative
    k: float  # percentage for partial/negative
    cost: float
    extra_target_keys: tuple[str, ...] = ()


def parse_evaluation(reply: str, policy: CostPolicy) -> EvaluationVerdict:
    effect_class = ""
    k = 0.0
    cost: Optional[float] = None
    extra: tuple[str, ...] = ()
    for line in reply.splitlines():
        effect = _EFFECT_LINE.match(line)
        if effect:
            word = effect.group(1).split()[0].lower()
            effect_class = word
            if word in ("partial", "negative"):
                k = min(max(float(effect.group(2) or effect.group(3)), 0.0), 100.0)
            continue
        cost_match = _COST_LINE.match(line)
        if cost_match:
            if cost_match.group(2) is not None:
                cost = min(max(float(cost_match.group(2)), 0.0), 10.0)
            else:
                cost = policy.tier(cost_match.group(1))
            continue
        targets_match = _TARGETS_LINE.match(line)
        if targets_match:
            extra = tuple(
                t.strip() for t in targets_match.group(1).split(",") if t.strip()
            )
    if not effect_class or cost is None:
        raise RemediationError(f"unparseable evaluation reply: {reply[:120]!r}")
    return EvaluationVerdict(
        effect_class=effect_class,
        k=k,
        cost=round(cost, 1),  # 0.1 granularity so the knapsack scaling is exact
        extra_target_keys=extra,
    )


def compute_value(verdict: EvaluationVerdict, target_scores: list[float]) -> float:
    """Deterministic value from the parsed class: the model never does arithmetic.

    The result is clamped to [-sum, +sum] of the target scores so rounding
    can never push it past the mechanical bounds.
    """
    total = sum(target_scores)
    if verdict.effect_class == "full":
        value = round(total, 2)
    elif verdict.effect_class == "partial":
        value = round(verdict.k / 100.0 * total, 2)
    elif verdict.effect_class == "negative":
        value = round(-verdict.k / 100.0 * total, 2)
    else:
        value = 0.0
    return min(max(value, -total), total)


class EvaluatorContext:
    """What every evaluate call over one finding list shares, built once.

    The system turn holds every finding plus the value and cost rules. Target
    keys resolve by finding key first, then by CVE id (never CVE-NA); each
    lookup takes the first finding that matches.
    """

    def __init__(self, findings: list[Vulnerability], policy: CostPolicy):
        self.system = render_prompt(
            AgentRole.EVALUATOR,
            {
                "vulns": format_vulns_inline(findings),
                "value_def": VALUE_RULES_TEXT,
                "cost_def": cost_rules_text(policy),
            },
            "system",
        )
        self.by_key: dict[str, Vulnerability] = {}
        self.by_id: dict[str, Vulnerability] = {}
        for f in findings:
            self.by_key.setdefault(f.key_str, f)
            if f.id != CVE_NA:
                self.by_id.setdefault(f.id.upper(), f)

    def resolve(self, keys: Iterable[str]) -> tuple[list[Vulnerability], list[str]]:
        """The distinct findings ``keys`` name, in order, and the keys naming none."""
        resolved: list[Vulnerability] = []
        unknown: list[str] = []
        for key in keys:
            match = self.by_key.get(key) or self.by_id.get(key.upper())
            if match is None:
                unknown.append(key)
            elif match not in resolved:
                resolved.append(match)
        return resolved, unknown


def evaluate(
    recommendation: Recommendation,
    findings: list[Vulnerability],
    policy: CostPolicy,
    gateway: Gateway,
    context: Optional[EvaluatorContext] = None,
) -> tuple[Recommendation, list[str]]:
    """Score one recommendation: evaluator classifies, the engine computes.

    ``context`` is the EvaluatorContext of ``findings`` and ``policy``; it is
    built here when not given. Returns the recommendation with cost, value,
    rationale and (possibly widened) target list filled in.
    """
    context = context or EvaluatorContext(findings, policy)

    def parse(reply: str) -> tuple[Optional[tuple[EvaluationVerdict, str]], list[str]]:
        try:
            return (parse_evaluation(reply, policy), reply.strip()), []
        except RemediationError as exc:
            return None, [str(exc)]

    variables = {"recommendation": recommendation.text}
    parsed, warnings = ask(gateway, AgentRole.EVALUATOR,
                           render_prompt(AgentRole.EVALUATOR, variables, "evaluate"),
                           system=context.system, parse=parse)
    if parsed is None:
        warnings.append(
            f"evaluation failed twice; defaulting to zero value, moderate cost"
        )
        return (
            recommendation._replace(
                cost=policy.tier("moderate"),
                value=0.0,
                rationale="evaluation unparseable; conservative default applied",
            ),
            warnings,
        )

    verdict, rationale = parsed
    target_keys = list(recommendation.target_vuln_ids)
    extra, unknown = context.resolve(verdict.extra_target_keys)
    for f in extra:
        if f.key_str not in target_keys:
            target_keys.append(f.key_str)
    for key in unknown:
        warnings.append(f"evaluator named unknown target {key!r}; ignored")

    targets, _ = context.resolve(target_keys)
    scores = [t.cvss.base_score if t.cvss else 0.0 for t in targets]
    value = compute_value(verdict, scores)
    return (
        recommendation._replace(
            cost=verdict.cost,
            value=value,
            target_vuln_ids=tuple(target_keys),
            rationale=rationale,
        ),
        warnings,
    )


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


class Selection(NamedTuple):
    groups: tuple[RecommendationGroup, ...]
    selected: tuple[Recommendation, ...]
    total_value: float
    total_cost: float


def select(groups: list[RecommendationGroup], budget: float) -> Selection:
    """Adopt the value-maximizing feasible set, at most one per group."""
    solution = solve_group_knapsack(
        [[(c.cost, c.value) for c in g.candidates] for g in groups],
        budget,
    )
    picked = set(solution.picks)
    final_groups: list[RecommendationGroup] = []
    selected: list[Recommendation] = []
    for g_index, group in enumerate(groups):
        candidates = []
        for c_index, candidate in enumerate(group.candidates):
            status = (
                RecommendationStatus.ADOPTED
                if (g_index, c_index) in picked
                else RecommendationStatus.DISCARDED
            )
            updated = candidate._replace(status=status)
            candidates.append(updated)
            if status is RecommendationStatus.ADOPTED:
                selected.append(updated)
        final_groups.append(group._replace(candidates=tuple(candidates)))
    return Selection(
        groups=tuple(final_groups),
        selected=tuple(selected),
        total_value=solution.total_value,
        total_cost=solution.total_cost,
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def remediate(
    findings: list[Vulnerability],
    config: RunConfig,
    gateway: Gateway,
    nvd_client: Optional[FixtureNvdClient | LiveNvdClient] = None,
) -> RemediationResult:
    """Enrich, advise, evaluate and select; never aborts on a single finding."""
    findings = dedupe_findings(findings)
    if not findings:
        return RemediationResult(
            groups=[],
            selected=[],
            budget=0.0,
            budget_used=0.0,
            findings=[],
            warnings=["nothing to remediate: no findings"],
        )

    enriched, warnings = enrich_findings(findings, gateway, nvd_client)
    groups, advise_warnings = advise(enriched, gateway)
    warnings.extend(advise_warnings)

    context = EvaluatorContext(enriched, config.cost_policy)
    scored_groups: list[RecommendationGroup] = []
    for group in groups:
        scored: list[Recommendation] = []
        for candidate in group.candidates:
            evaluated, eval_warnings = evaluate(
                candidate, enriched, config.cost_policy, gateway, context
            )
            warnings.extend(eval_warnings)
            scored.append(evaluated)
        scored_groups.append(group._replace(candidates=tuple(scored)))

    budget = config.budget_per_vuln * len(enriched)
    if config.budget_scope is BudgetScope.PER_VULNERABILITY:
        parts, part_budget = [[g] for g in scored_groups], config.budget_per_vuln
    else:
        parts, part_budget = [scored_groups], budget
    final_groups: list[RecommendationGroup] = []
    selected: list[Recommendation] = []
    used = 0.0
    for part in parts:
        partial = select(part, part_budget)
        final_groups.extend(partial.groups)
        selected.extend(partial.selected)
        used += partial.total_cost
    return RemediationResult(
        groups=final_groups,
        selected=selected,
        budget=budget,
        budget_used=round(used, 2),
        findings=enriched,
        warnings=warnings,
    )


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
