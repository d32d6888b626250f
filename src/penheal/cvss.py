"""CVSS v3.1 base-score arithmetic and vector-string parsing.

Only the eight base metrics are supported; temporal and environmental
metrics are out of scope. Scores follow the v3.1 integer round-up rule,
so results match the public calculators digit for digit.
"""

from __future__ import annotations

import math
import re

from .model import CvssMetrics

WEIGHT_AV = {"N": 0.85, "A": 0.62, "L": 0.55, "P": 0.2}
WEIGHT_AC = {"L": 0.77, "H": 0.44}
WEIGHT_PR_UNCHANGED = {"N": 0.85, "L": 0.62, "H": 0.27}
WEIGHT_PR_CHANGED = {"N": 0.85, "L": 0.68, "H": 0.5}
WEIGHT_UI = {"N": 0.85, "R": 0.62}
WEIGHT_CIA = {"H": 0.56, "L": 0.22, "N": 0.0}

METRIC_ORDER = ("AV", "AC", "PR", "UI", "S", "C", "I", "A")
METRIC_VALUES = {
    "AV": ("N", "A", "L", "P"),
    "AC": ("L", "H"),
    "PR": ("N", "L", "H"),
    "UI": ("N", "R"),
    "S": ("U", "C"),
    "C": ("H", "L", "N"),
    "I": ("H", "L", "N"),
    "A": ("H", "L", "N"),
}

ACCEPTED_PREFIXES = ("CVSS:3.0", "CVSS:3.1")

# The whole accepted grammar, upper-cased: a prefix, then each metric in canonical
# order after one or more slashes, then optional slashes. One group per metric value.
_VECTOR = re.compile(
    f"(?:{'|'.join(map(re.escape, ACCEPTED_PREFIXES))})"
    + "".join(f"/+{m}:([{''.join(METRIC_VALUES[m])}])" for m in METRIC_ORDER)
    + "/*"
)

# Applied when the estimator cannot produce a parseable vector.
CONSERVATIVE_DEFAULT_VECTOR = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L"


class VectorParseError(ValueError):
    """Raised for vector strings that do not follow the strict base-metric grammar."""


def round_up_one_decimal(value: float) -> float:
    """The v3.1 round-up: smallest one-decimal value >= input, via integer math."""
    scaled = int(math.floor(value * 100000 + 0.5))
    if scaled % 10000 == 0:
        return scaled / 100000.0
    return (scaled // 10000 + 1) / 10.0


def base_score(metrics: tuple) -> float:
    """The base score (0.0-10.0, one decimal) of the eight metric values, in CvssMetrics order."""
    av, ac, pr, ui, scope, c, i, a = metrics[:8]
    iss = 1.0 - (1.0 - WEIGHT_CIA[c]) * (1.0 - WEIGHT_CIA[i]) * (1.0 - WEIGHT_CIA[a])
    if scope == "U":
        impact = 6.42 * iss
        pr_weight = WEIGHT_PR_UNCHANGED[pr]
    else:
        impact = 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15
        pr_weight = WEIGHT_PR_CHANGED[pr]

    if impact <= 0:
        return 0.0

    exploitability = 8.22 * WEIGHT_AV[av] * WEIGHT_AC[ac] * pr_weight * WEIGHT_UI[ui]
    if scope == "U":
        return round_up_one_decimal(min(impact + exploitability, 10.0))
    return round_up_one_decimal(min(1.08 * (impact + exploitability), 10.0))


def parse_vector(text: str) -> CvssMetrics:
    """Parse a base-metric vector string into scored metrics.

    Grammar is strict: ASCII only, a CVSS:3.0/ or CVSS:3.1/ prefix, then the
    eight metrics in canonical order, slash-separated. Values are accepted
    case-insensitively; duplicated, missing or reordered metrics are
    rejected with an error naming the offenders.
    """
    cleaned = text.strip()
    if not cleaned.isascii():  # upper() would fold lookalikes such as "ſ" into "S"
        raise VectorParseError(f"vector must be ASCII: {text[:60]!r}")
    cleaned = cleaned.upper()
    match = _VECTOR.fullmatch(cleaned)
    if match:
        values = match.groups()
        return CvssMetrics(*values, base_score(values))

    # Not a vector: walk the segments to name the first problem.
    prefix = next((p for p in ACCEPTED_PREFIXES if cleaned.startswith(p + "/")), None)
    if prefix is None:
        raise VectorParseError(
            f"vector must start with one of {', '.join(ACCEPTED_PREFIXES)}: {text[:60]!r}"
        )
    names: list[str] = []
    for part in cleaned[len(prefix) + 1 :].split("/"):
        if not part:
            continue
        if ":" not in part:
            raise VectorParseError(f"malformed metric segment {part[:60]!r}")
        name, _, value = part.partition(":")
        if name not in METRIC_VALUES:
            raise VectorParseError(f"unknown metric {name[:60]!r}")
        if name in names:
            raise VectorParseError(f"duplicate metric: {name}")
        if value not in METRIC_VALUES[name]:
            raise VectorParseError(f"invalid value {value[:60]!r} for metric {name}")
        names.append(name)
    missing = [m for m in METRIC_ORDER if m not in names]
    if missing:
        raise VectorParseError(f"missing metrics: {', '.join(missing)}")
    # Every metric once with a valid value, yet no match: only the order is wrong.
    raise VectorParseError(f"metrics out of canonical order (expected {'/'.join(METRIC_ORDER)})")
