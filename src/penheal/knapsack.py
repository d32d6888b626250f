"""Exact group-knapsack selection over scored remediation candidates.

Items are partitioned into groups (one group per vulnerability) and at most
one item per group may be chosen. The solver works in integers only: costs
become units of 0.1 (``round(cost * 10)``) and values become cents
(``round(value * 100)``). Values therefore sit on a 0.01 grid, which
``compute_value`` guarantees; costs sit on a 0.1 grid, which the evaluator
parser guarantees. The capacity is the budget's whole units, forgiving float
error below 1e-6 units (0.7 * 3 buys 2.1), and at most the sum of each group's
heaviest item worth any cents: a larger budget buys every pick that one does,
so it gives the same solution. Items worth no cents or heavier than the
capacity are dropped, and every weight and the capacity are divided by the gcd
of the remaining weights (tier costs 20/50/100 units solve over 2/5/10).

A suffix DP, from the last group back to the first, keeps one integer key
per remaining capacity: ``cents * (capacity + 1) - weight``, so a larger key
means higher value, then lower cost. A row is one Python int of lanes, lane c
holding the key within capacity c, so a candidate updates every capacity with
a few big-int operations (SIMD within a register). A lane has one bit more
than ``top``, the sum of each group's largest key, which bounds every key: its
top bit is a guard no key reaches. A candidate's lanes are the next row plus
its key, shifted up by its weight (0 below it). Subtracting them from the
current lanes with every guard set leaves a guard set exactly where the current
key is at least the candidate's, and no lane borrows from the next, since each
held at least guard - ``top``. The current key stays there, ties included.
Reconstruction walks forward and, at each group, takes the lowest-index
candidate that keeps the optimum, and skips the group only if none does. The
result is the best set by value descending, then cost ascending, then the
lexicographically smallest pick vector.
"""

from __future__ import annotations

from math import floor, gcd

COST_SCALE = 10
VALUE_SCALE = 100


def solve_group_knapsack(
    groups: list[list[tuple[float, float]]],
    budget: float,
) -> tuple[tuple[int, int], ...]:
    """The (group, candidate) index pairs, in group order, of the best pick set.

    Maximizes total value subject to total cost <= budget, one pick per group.
    ``groups`` holds (cost, value) pairs with cost >= 0. Ties on value are
    broken toward lower total cost, then toward earlier groups and earlier
    candidates within a group, so the result is fully deterministic.
    """
    if not budget >= 0:  # also a NaN budget
        raise ValueError("budget must be >= 0")
    scaled = [
        [(i, round(cost * COST_SCALE), round(value * VALUE_SCALE))
         for i, (cost, value) in enumerate(candidates)]
        for candidates in groups
    ]
    if any(weight < 0 for group in scaled for _, weight, _ in group):
        raise ValueError("costs must be >= 0")
    bound = sum(max((weight for _, weight, cents in group if cents > 0), default=0)
                for group in scaled)
    capacity = bound if budget * COST_SCALE >= bound else floor(round(budget * COST_SCALE, 6))
    kept = [
        [(i, weight, cents) for i, weight, cents in group if cents > 0 and weight <= capacity]
        for group in scaled
    ]
    step = gcd(*(weight for group in kept for _, weight, _ in group)) or 1
    cap = capacity // step
    items = [
        [(i, weight // step, cents * (cap + 1) - weight // step) for i, weight, cents in group]
        for group in kept
    ]

    # rows[g] holds, in lane c of ``lane`` bits, the best key over groups g.. within c.
    top = sum(max((key for _, _, key in group), default=0) for group in items)
    lane = top.bit_length() + 1
    lane_mask, full = (1 << lane) - 1, (1 << lane * (cap + 1)) - 1
    ones = full // lane_mask
    guard = ones << lane - 1
    rows = [0]
    for group in reversed(items):
        after = row = rows[-1]
        for _, weight, key in group:
            took = ((after + key * ones) << lane * weight) & full
            keep = ((((row | guard) - took) & guard) >> lane - 1) * lane_mask
            row = took ^ ((row ^ took) & keep)
        rows.append(row)
    rows.reverse()

    picks: list[tuple[int, int]] = []
    left = cap
    for g, group in enumerate(items):
        best = rows[g] >> lane * left & lane_mask
        for i, weight, key in group:
            if weight <= left and (rows[g + 1] >> lane * (left - weight) & lane_mask) + key == best:
                picks.append((g, i))
                left -= weight
                break
    return tuple(picks)
