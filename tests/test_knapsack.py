"""Group-knapsack solver against exhaustive enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal.knapsack import solve_group_knapsack


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
