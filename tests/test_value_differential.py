"""Differential property: the value of an evaluator reply is what the class-based rule gave.

An evaluator reply names an effect class, full, zero, partial k% or negative k%, and
``parse_evaluation`` reads it as one signed share of the targets' scores. The reference
below is the earlier reading: the last effect line's class and its k clamped to 0..100,
decoded by a four-way branch. For replies of every class, with k fractional and past 100,
and one-decimal scores, ``compute_value`` must give the reference value bit for bit,
compared by ``float.hex`` so that a -0.0, which the artifact writes as such, is checked too.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal.model import CostPolicy
from penheal.remediation import compute_value, parse_evaluation

# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

_REF_EFFECT_LINE = re.compile(
    r"^\s*effect\s*:\s*(full|zero|partial\s+(\d+(?:\.\d+)?)\s*%?|negative\s+(\d+(?:\.\d+)?)\s*%?)\s*$",
    re.IGNORECASE,
)


def ref_effect(reply: str) -> tuple[str, float]:
    """The effect class of the reply's last effect line, and the last partial or negative k."""
    effect_class, k = "", 0.0
    for line in reply.splitlines():
        effect = _REF_EFFECT_LINE.match(line)
        if effect:
            word = effect.group(1).split()[0].lower()
            effect_class = word
            if word in ("partial", "negative"):
                k = min(max(float(effect.group(2) or effect.group(3)), 0.0), 100.0)
    return effect_class, k


def ref_compute_value(effect_class: str, k: float, target_scores: list[float]) -> float:
    total = sum(int(score * 10) for score in target_scores) / 10
    if effect_class == "full":
        value = round(total, 2)
    elif effect_class == "partial":
        value = round(k / 100.0 * total, 2)
    elif effect_class == "negative":
        value = round(-k / 100.0 * total, 2)
    else:
        value = 0.0
    return min(max(value, -total), total)


# ---------------------------------------------------------------------------
# Replies and scores
# ---------------------------------------------------------------------------

_K = st.builds(lambda whole, fraction: f"{whole}.{fraction}" if fraction else str(whole),
               st.integers(0, 1000), st.text("0123456789", max_size=8))
_EFFECT = st.one_of(
    st.just("full"),
    st.just("zero"),
    st.builds("partial {}{}".format, _K, st.sampled_from(["%", " %", ""])),
    st.builds("negative {}{}".format, _K, st.sampled_from(["%", ""])),
)
_CASE = st.sampled_from([str.lower, str.upper, str.title])
_EFFECT_LINE = st.builds(lambda case, effect, pad: case(f"{pad}effect: {effect}{pad}"),
                         _CASE, _EFFECT, st.sampled_from(["", " ", "\t"]))
_COST_LINE = st.sampled_from(["cost: low", "Cost: moderate", "cost: HIGH", "cost: 3.5"])
_REPLY = st.tuples(st.lists(_EFFECT_LINE, min_size=1, max_size=3), _COST_LINE).flatmap(
    lambda lines: st.permutations([*lines[0], lines[1]])).map("\n".join)
_SCORES = st.lists(st.integers(0, 100).map(lambda tenths: tenths / 10), max_size=9)


@settings(max_examples=300, deadline=None)
@given(_REPLY, _SCORES)
@example("effect: negative 0\ncost: low", [9.8])  # -0.0
@example("effect: negative 40\ncost: low", [])  # -0.0 of a total of 0.0
@example("effect: zero\ncost: low", [])
@example("effect: full\ncost: low", [9.8] * 9)  # a float sum of 88.19999999999999
@example("effect: partial 100.5%\ncost: 2", [9.8, 7.5])  # k past 100
@example("effect: partial 33.333333\ncost: low", [9.9, 0.1, 7.7])
@example("effect: partial 40\neffect: full\ncost: low", [5.0])  # the last line wins
def test_value_equals_the_class_based_rule(reply, scores):
    value = compute_value(parse_evaluation(reply, CostPolicy().tiers()), scores)
    assert value.hex() == ref_compute_value(*ref_effect(reply), scores).hex()


def test_an_effect_word_matched_only_by_case_folding_is_unparseable():
    """The reference reads ``partıal`` (a dotless i), which its Unicode case folding matches
    to ``partial``, as no class, so zero. Keywords are ASCII now: the reply has no effect
    line, and ``parse_evaluation`` raises, so the evaluator is asked again."""
    assert ref_compute_value(*ref_effect("effect: partıal 40\ncost: low"), [9.8]) == 0.0
    with pytest.raises(ValueError, match="unparseable evaluation reply"):
        parse_evaluation("effect: partıal 40\ncost: low", CostPolicy().tiers())
