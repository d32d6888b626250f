"""Group-knapsack solver against exhaustive enumeration."""

import itertools
import random
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal.knapsack import COST_SCALE, VALUE_SCALE, solve_group_knapsack


def brute_force(groups, budget):
    """Independent oracle: enumerate every choice vector (None = skip group).

    Works on integer cents and 0.1 cost units and returns the full tie-break
    winner (cents, weight units, picks): value desc, cost asc, picks asc. A
    choice fits when its cost is at most the budget, up to float error.
    """
    best = (0, 0, ())  # (-cents, weight units, picks): the smallest wins
    choices = [[None] + list(range(len(g))) for g in groups]
    for combo in itertools.product(*choices):
        picks = tuple((g, i) for g, i in enumerate(combo) if i is not None)
        cents = [round(groups[g][i][1] * 100) for g, i in picks]
        weight = sum(round(groups[g][i][0] * 10) for g, i in picks)
        if all(c > 0 for c in cents) and weight <= budget * 10 + 1e-6:
            best = min(best, (-sum(cents), weight, picks))
    return -best[0], best[1], best[2]


def list_dp(groups, budget):
    """Reference: the same scaling and keys, with one Python int per capacity in a list DP."""
    scaled = [[(i, round(cost * COST_SCALE), round(value * VALUE_SCALE))
               for i, (cost, value) in enumerate(candidates)] for candidates in groups]
    bound = sum(max((weight for _, weight, cents in group if cents > 0), default=0)
                for group in scaled)
    capacity = bound if budget * COST_SCALE >= bound else floor(round(budget * COST_SCALE, 6))
    kept = [[(i, weight, cents) for i, weight, cents in group if cents > 0 and weight <= capacity]
            for group in scaled]
    step = gcd(*(weight for group in kept for _, weight, _ in group)) or 1
    cap = capacity // step
    items = [[(i, weight // step, cents * (cap + 1) - weight // step)
              for i, weight, cents in group] for group in kept]
    rows = [[0] * (cap + 1)]
    for group in reversed(items):
        after = rows[-1]
        row = list(after)
        for _, weight, key in group:
            row[weight:] = [best if best >= (took := rest + key) else took
                            for best, rest in zip(row[weight:], after)]
        rows.append(row)
    rows.reverse()
    picks = []
    left = cap
    for g, group in enumerate(items):
        for i, weight, key in group:
            if weight <= left and rows[g + 1][left - weight] + key == rows[g][left]:
                picks.append((g, i))
                left -= weight
                break
    return tuple(picks)


def cents_and_weight(groups, picks):
    """The picks' total value in cents and total cost in 0.1 units."""
    return (sum(round(groups[g][i][1] * 100) for g, i in picks),
            sum(round(groups[g][i][0] * 10) for g, i in picks))


def assert_matches_oracle(groups, budget):
    picks = solve_group_knapsack(groups, budget)
    cents, weight, expected = brute_force(groups, budget)
    assert picks == expected
    assert cents_and_weight(groups, picks) == (cents, weight)


def random_instance(rng):
    groups = [
        [
            (rng.choice([2.0, 5.0, 10.0]), round(rng.uniform(0.0, 18.0), 1))
            for _ in range(rng.randint(1, 4))
        ]
        for _ in range(rng.randint(1, 4))
    ]
    budget = rng.randint(0, 4000) / 100
    return groups, budget


class TestSolver:
    def test_empty_groups(self):
        assert solve_group_knapsack([], 10.0) == ()

    def test_zero_budget_picks_nothing_costly(self):
        assert solve_group_knapsack([[(2.0, 9.0)]], 0.0) == ()

    def test_single_group_single_item(self):
        assert solve_group_knapsack([[(2.0, 9.0)]], 3.0) == ((0, 0),)

    def test_narrowing_scenario(self):
        # One vulnerability, four candidate fixes, budget 3: the two cheap
        # full fixes tie; candidate order adopts the first, the audit and
        # the shutdown lose.
        groups = [[(2.0, 9.0), (2.0, 3.0), (10.0, 9.0), (2.0, 9.0)]]
        picks = solve_group_knapsack(groups, 3.0)
        assert picks == ((0, 0),)  # deterministic candidate-order tie-break
        assert cents_and_weight(groups, picks) == (900, 20)

    def test_nonpositive_values_excluded(self):
        groups = [[(0.0, 0.0), (0.0, -5.0), (1.0, 1.0)]]
        assert solve_group_knapsack(groups, 10.0) == ((0, 2),)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="costs must be >= 0"):
            solve_group_knapsack([[(2.0, 9.0)], [(-1.0, 5.0)]], 10.0)

    def test_one_pick_per_group(self):
        groups = [[(1.0, 5.0), (1.0, 6.0)], [(1.0, 7.0), (1.0, 1.0)]]
        picks = solve_group_knapsack(groups, 10.0)
        assert sorted(g for g, _ in picks) == [0, 1]
        assert cents_and_weight(groups, picks) == (1300, 20)

    def test_fractional_costs_survive_scaling(self):
        groups = [[(0.1, 1.0)], [(0.2, 2.0)]]
        assert cents_and_weight(groups, solve_group_knapsack(groups, 0.3)) == (300, 3)
        assert solve_group_knapsack([[(2.1, 1.0)]], 0.7 * 3) == ((0, 0),)

    @pytest.mark.parametrize("cost, budget", [(0.5, 0.46), (1.6, 1.55)])
    def test_budget_between_units_is_not_rounded_up(self, cost, budget):
        assert solve_group_knapsack([[(cost, 1.0)]], budget) == ()
        assert_matches_oracle([[(cost, 1.0)]], budget)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(120):
            groups, budget = random_instance(rng)
            assert_matches_oracle(groups, budget)

    def test_exact_tie_prefers_earlier_groups(self):
        # 0.7 + 0.1 and 0.8 are the same 80 cents at the same cost.
        groups = [[(1.0, 0.7)], [(1.0, 0.1)], [(2.0, 0.8)]]
        assert solve_group_knapsack(groups, 2.0) == ((0, 0), (1, 0))
        assert_matches_oracle(groups, 2.0)

    def test_exact_tie_prefers_lower_cost(self):
        # 1.3 + 12.8 is 14.100000000000001 as floats but the same 1410 cents
        # as 14.1 alone, which costs less.
        groups = [[(10.0, 1.3)], [(10.0, 14.1), (5.0, 12.8)]]
        picks = solve_group_knapsack(groups, 16.0)
        assert picks == ((1, 0),)
        assert cents_and_weight(groups, picks) == (1410, 100)
        assert_matches_oracle(groups, 16.0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_brute_force(self, data):
        groups = data.draw(
            st.lists(
                st.lists(
                    st.tuples(
                        st.sampled_from([0.5, 1.6, 2.0, 2.1, 5.0, 10.0]),
                        st.floats(min_value=0.0, max_value=18.0).map(
                            lambda x: round(x, 1)
                        ),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                min_size=0,
                max_size=4,
            )
        )
        budget = data.draw(st.integers(min_value=0, max_value=4000)) / 100
        assert_matches_oracle(groups, budget)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_budget_monotonicity(self, data):
        groups = data.draw(
            st.lists(
                st.lists(
                    st.tuples(
                        st.sampled_from([2.0, 5.0, 10.0]),
                        st.floats(min_value=0.0, max_value=18.0).map(
                            lambda x: round(x, 1)
                        ),
                    ),
                    min_size=1,
                    max_size=3,
                ),
                min_size=1,
                max_size=3,
            )
        )
        low = float(data.draw(st.integers(min_value=0, max_value=20)))
        high = low + float(data.draw(st.integers(min_value=0, max_value=20)))
        high_cents, _ = cents_and_weight(groups, solve_group_knapsack(groups, high))
        low_cents, _ = cents_and_weight(groups, solve_group_knapsack(groups, low))
        assert high_cents >= low_cents


class TestPackedLanes:
    """The packed DP against the list DP it replaced, past the brute-force oracle's reach."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_list_dp(self, data):
        costs = data.draw(st.sampled_from([(2.0, 5.0, 10.0), (0.1, 0.3, 0.7, 1.1),
                                           (0.0, 0.5, 2.5)]))
        top = data.draw(st.sampled_from([18.0, 1e4, 1e13]))  # 1e13: lanes past 64 bits
        value = st.floats(min_value=-1.0, max_value=top).map(lambda x: round(x, 2))
        groups = data.draw(st.lists(st.lists(st.tuples(st.sampled_from(costs), value),
                                             max_size=4), max_size=60))
        budget = data.draw(st.one_of(st.integers(0, 60 * 80).map(lambda b: b / 10),
                                     st.just(1e12)))
        assert solve_group_knapsack(groups, budget) == list_dp(groups, budget)

    def test_sixty_groups_over_hundreds_of_capacities(self):
        rng = random.Random(3)
        groups = [[(rng.choice([0.1, 0.3, 0.7, 1.1]), round(rng.uniform(0.0, 18.0), 1))
                   for _ in range(3)] for _ in range(60)]
        for budget in (0.9, 13.3, 30.0, 41.7, 1e12):  # up to 530 capacities of 0.1
            assert solve_group_knapsack(groups, budget) == list_dp(groups, budget)

    # Keys are cents * (capacity + 1) - weight over the gcd-reduced capacity and weights,
    # and a lane is one bit wider than their bound, the sum of each group's largest key.
    # Each instance puts that bound at 2**m - 1, which fills m bits, or at 2**m.
    @pytest.mark.parametrize("groups, budget", [
        # capacity 1: the key 2 * 1024 - 1 is 2**11 - 1
        ([[(1.0, 10.24), (1.0, 5.0)]], 1.0),
        # capacity 2: keys 3 * 683 - 1 are 2**11 each, and the bound is 2**12
        ([[(1.0, 6.83), (1.0, 6.0)], [(1.0, 6.83), (1.0, 6.82)]], 2.0),
        # capacity 2: keys 3 * 341 - 1 and 3 * 342 - 1 sum to 2**11 - 1
        ([[(1.0, 3.41), (1.0, 3.4)], [(1.0, 3.42)]], 2.0),
        # capacity 3 of 4: keys 4 * 512 - 2 and 4 * 513 - 2 sum to 2**12
        ([[(2.0, 5.12), (1.0, 3.0)], [(2.0, 5.13), (1.0, 4.0)]], 3.0),
        # capacity 4: keys 5 * 13107 - 2 and 5 * 13108 - 2 sum to 2**17 - 1
        ([[(2.0, 131.07), (1.0, 60.0)], [(2.0, 131.08), (1.0, 70.0)]], 4.0),
    ])
    def test_keys_at_the_lane_bound(self, groups, budget):
        assert solve_group_knapsack(groups, budget) == list_dp(groups, budget)
        assert_matches_oracle(groups, budget)

    @pytest.mark.parametrize("budget", [3.0, 6.0, 9.0, 10.0, 1e12])
    def test_lanes_past_64_bits(self, budget):
        # Cents near 1e18 times 4 to 13 capacities over 3 groups: the key bound takes 64
        # to 66 bits, so every lane is wider than a machine word.
        groups = [[(1.0, 9.0e15), (2.0, 9.3e15), (5.0, 9.9e15)],
                  [(1.0, 8.9e15), (3.0, 9.7e15)],
                  [(2.0, 9.1e15), (4.0, 9.8e15)]]
        assert solve_group_knapsack(groups, budget) == list_dp(groups, budget)
        assert_matches_oracle(groups, budget)


class TestBudgetAboveTheBound:
    """A budget beyond what the groups can spend solves at that bound, in bounded memory."""

    HUGE = (1e12, 1e308, float("inf"))

    def test_huge_budgets_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            groups, _ = random_instance(rng)
            expected = brute_force(groups, 1e12)  # nothing is out of reach
            bound = sum(max((cost for cost, value in g if round(value * 100) > 0), default=0.0)
                        for g in groups)
            at_bound = solve_group_knapsack(groups, bound)
            for budget in self.HUGE:
                picks = solve_group_knapsack(groups, budget)
                assert picks == at_bound
                assert (*cents_and_weight(groups, picks), picks) == expected

    def test_many_groups_at_a_huge_budget(self):
        groups = [[(10.0, 9.8), (2.0, 5.0)]] * 60
        picks = solve_group_knapsack(groups, 1e12)
        assert picks == tuple((g, 0) for g in range(60))
        assert cents_and_weight(groups, picks) == (60 * 980, 6000)

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            solve_group_knapsack([[(2.0, 9.0)]], float("nan"))
