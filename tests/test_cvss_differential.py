"""Differential property: ``cvss.parse_vector`` matches the whole grammar with one
pattern, and it accepts and rejects exactly as the segment walk it replaced did.

The reference below is the earlier implementation: upper-case the stripped text,
check the prefix, then walk the slash-separated segments, naming the first bad
one, then the missing metrics, then the order. On ASCII input the new parser
must return the same scored metrics, or raise with the same message.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal import cvss
from penheal.cvss import ACCEPTED_PREFIXES, METRIC_ORDER, METRIC_VALUES, VectorParseError
from penheal.model import CvssMetrics

# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------


def ref_parse_vector(text: str) -> CvssMetrics:
    cleaned = text.strip().upper()
    prefix = next((p for p in ACCEPTED_PREFIXES if cleaned.startswith(p + "/")), None)
    if prefix is None:
        raise VectorParseError(
            f"vector must start with one of {', '.join(ACCEPTED_PREFIXES)}: {text[:60]!r}"
        )

    parts = cleaned[len(prefix) + 1 :].split("/")
    names: list[str] = []
    values: dict[str, str] = {}
    for part in parts:
        if not part:
            continue
        if ":" not in part:
            raise VectorParseError(f"malformed metric segment {part[:60]!r}")
        name, _, value = part.partition(":")
        if name not in METRIC_VALUES:
            raise VectorParseError(f"unknown metric {name[:60]!r}")
        if name in values:
            raise VectorParseError(f"duplicate metric: {name}")
        if value not in METRIC_VALUES[name]:
            raise VectorParseError(f"invalid value {value[:60]!r} for metric {name}")
        names.append(name)
        values[name] = value

    missing = [m for m in METRIC_ORDER if m not in values]
    if missing:
        raise VectorParseError(f"missing metrics: {', '.join(missing)}")
    if tuple(names) != METRIC_ORDER:
        raise VectorParseError(
            f"metrics out of canonical order (expected {'/'.join(METRIC_ORDER)})"
        )

    metrics = CvssMetrics(
        av=values["AV"],
        ac=values["AC"],
        pr=values["PR"],
        ui=values["UI"],
        scope=values["S"],
        c=values["C"],
        i=values["I"],
        a=values["A"],
    )
    return metrics._replace(base_score=cvss.base_score(metrics))


def outcome(parse, text):
    try:
        return parse(text)
    except VectorParseError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

PREFIXES = ("CVSS:2.0", "CVSS:3.2", "CVSS3.1", "CVSS:3.10", "CVSS", "")
WHITESPACE = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1f", max_size=3)
SLASHES = ("/", "//", "///")
BAD_SEPARATORS = ("", ":", "\\", " /")
BAD_VALUES = ("", "X", "NN", "N:N", " N", "U", "R", "C", "0")
UNKNOWN_SEGMENTS = ("E:F", "XX:N", "AVN", "AV", ":", "::", "RL:O", "A:", ":H", "S :U")
EDITS = ("drop", "duplicate", "swap", "unknown", "empty")


def noisy(draw):
    """Whether one part of a drawn vector strays from the grammar (a third of the time)."""
    return draw(st.integers(0, 2)) == 0


@st.composite
def segments(draw):
    """The canonical metrics, some edited: dropped, duplicated, swapped or joined by junk."""
    bad_values = noisy(draw)
    parts = [f"{name}:{draw(st.sampled_from(METRIC_VALUES[name] + BAD_VALUES * bad_values))}"
             for name in METRIC_ORDER]
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3)) * noisy(draw):
        at = draw(st.integers(0, max(len(parts) - 1, 0)))
        if edit == "drop" and parts:
            del parts[at]
        elif edit == "duplicate" and parts:
            parts.insert(draw(st.integers(0, len(parts))), parts[at])
        elif edit == "swap" and len(parts) > 1:
            other = draw(st.integers(0, len(parts) - 1))
            parts[at], parts[other] = parts[other], parts[at]
        elif edit == "unknown":
            parts.insert(at, draw(st.sampled_from(UNKNOWN_SEGMENTS)))
        elif edit == "empty":
            parts.insert(at, "")
    return parts


@st.composite
def vectors(draw):
    """Vectors near the grammar: each of prefix, values, segment list and separators may stray."""
    text = draw(st.sampled_from(ACCEPTED_PREFIXES + PREFIXES * noisy(draw)))
    separators = st.sampled_from(SLASHES + BAD_SEPARATORS * noisy(draw))
    for part in draw(segments()):
        text += draw(separators) + part
    text += draw(st.sampled_from(["", "", "/", "//"]))
    # Fold the case of a random subset of characters.
    lower = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    text = "".join(c.lower() if flip else c for c, flip in zip(text, lower))
    return draw(WHITESPACE) + text + draw(WHITESPACE)


ASCII_NOISE = st.text(alphabet=st.characters(max_codepoint=127), max_size=60)


@settings(max_examples=600, deadline=None)
@given(st.one_of(vectors(), vectors(), ASCII_NOISE))
@example("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
@example(" cvss:3.0//av:n/AC:h///pr:l/ui:r/s:c/c:l/i:n/a:h// ")
@example("CVSS:3.1//")
@example("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/A:H/I:H")
@example("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/A:H")
@example("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H:H")
@example("CVSS:3.1AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
def test_parse_vector_matches_the_segment_walk(text):
    assert outcome(cvss.parse_vector, text) == outcome(ref_parse_vector, text)
