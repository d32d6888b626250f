"""Benchmark scoring of a run against ground truth.

Detection coverage is 10x the fraction of ground-truth weaknesses matched;
remediation effectiveness and cost are the means over the adopted
recommendation set. The overall score combines them, either divided by
three (the default) or as a plain sum.
"""

from __future__ import annotations

from collections import deque

from .model import (
    CVE_NA,
    AggregationMode,
    Recommendation,
    ScoreReport,
    Vulnerability,
)


def match_findings(
    found: list[Vulnerability], truth: list[Vulnerability]
) -> list[tuple[Vulnerability, Vulnerability]]:
    """Greedy (found, truth) pairs: exact CVE id first, then the whole key for CVE-NA rows.

    Ids, services and ports compare through ``Vulnerability.key``, so case
    never matters. Each truth entry is consumed at most once, so duplicate
    claims never inflate coverage.
    """
    queues: dict[object, deque[Vulnerability]] = {}  # unconsumed truth rows, in truth order
    for t in truth:
        queues.setdefault(_pool_key(t), deque()).append(t)
    matched: list[tuple[Vulnerability, Vulnerability]] = []
    # Named ids first, in found order: only a CVE-NA finding's pool key is a tuple.
    for key, f in sorted(((_pool_key(f), f) for f in found), key=lambda p: type(p[0]) is tuple):
        if queues.get(key):
            matched.append((f, queues[key].popleft()))
    return matched


def _pool_key(v: Vulnerability) -> object:
    """A named id matches by the id alone, a CVE-NA row by its whole key: the pools never meet."""
    key = v.key
    return key if key[0] == CVE_NA else key[0]


def detection_coverage(found: list[Vulnerability], truth: list[Vulnerability]) -> float:
    """10x the fraction of ground truth that ``found`` matches."""
    if not truth:
        raise ValueError("ground truth is empty; coverage undefined")
    return 10.0 * len(match_findings(found, truth)) / len(truth)


def remediation_effectiveness(selected: list[Recommendation]) -> float:
    """Mean value over the adopted set (0 when nothing was adopted)."""
    if not selected:
        return 0.0
    return sum(r.value for r in selected) / len(selected)


def remediation_cost(selected: list[Recommendation]) -> float:
    """Mean cost over the adopted set (0 when nothing was adopted)."""
    if not selected:
        return 0.0
    return sum(r.cost for r in selected) / len(selected)


def overall(
    s_d: float,
    s_r: float,
    c: float,
    mode: AggregationMode = AggregationMode.DIVIDED_BY_THREE,
) -> float:
    total = s_d + s_r - c
    if mode is AggregationMode.SUM:
        return total
    return total / 3.0


def score_run(
    found: list[Vulnerability],
    truth: list[Vulnerability],
    selected: list[Recommendation],
    mode: AggregationMode = AggregationMode.DIVIDED_BY_THREE,
    run_id: str = "",
) -> ScoreReport:
    """Compute the full score report for one run."""
    s_d = round(detection_coverage(found, truth), 2)
    s_r = round(remediation_effectiveness(selected), 2)
    c = round(remediation_cost(selected), 2)
    notes: list[str] = []
    if not selected:
        notes.append("no recommendations were adopted; S_R and C default to 0")
    return ScoreReport(
        s_d=s_d,
        s_r=s_r,
        c=c,
        s_overall=overall(s_d, s_r, c, mode),
        found_count=len(found),
        truth_count=len(truth),
        run_id=run_id,
        notes=tuple(notes),
    )


def format_score_table(report: ScoreReport, mode: AggregationMode) -> str:
    mode_label = "(S_D + S_R - C) / 3" if mode is AggregationMode.DIVIDED_BY_THREE else "S_D + S_R - C"
    lines = [
        "score          value",
        "-------------  ------",
        f"detection      {report.s_d:6.2f}   ({report.found_count} found, {report.truth_count} ground truth)",
        f"effectiveness  {report.s_r:6.2f}",
        f"cost           {report.c:6.2f}",
        f"overall        {report.s_overall:6.4f}   [{mode_label}]",
    ]
    lines.extend(f"note: {n}" for n in report.notes)
    return "\n".join(lines)
