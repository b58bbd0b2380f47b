"""The brute-force reference implementations themselves."""

import random

import pytest

from conftest import random_parity_game
from oracle_reference import (
    BudgetExceededError,
    EnumerationBudget,
    all_strategies,
    brute_force_winners,
    enumerate_optimal_response,
    enumerate_optimal_strategy,
    is_admissible_bruteforce,
    play_values,
)
from sinkgames.families import gen_table1
from sinkgames.game import ParityGame, Strategy
from sinkgames.playvalues import NEG_INF, POS_INF, PlayValue


class TestPlayWalking:
    def test_path_counts_to_sink(self):
        inst = gen_table1(1)
        values = play_values(inst.game, inst.sigma0, inst.tau0)
        a1 = inst.id_of("a1")
        assert values[a1] == PlayValue.finite({3: 1})
        assert values[inst.game.sink] == PlayValue.empty()

    def test_even_cycle_is_plus_infinity(self):
        game = ParityGame(
            [0, 1, 2], [0, 0, 1], [1, 4, 3], [None] * 3, [(0,), (2, 0), (1,)], sink=0
        )
        values = play_values(game, Strategy(0, {0: 0, 1: 2}), Strategy(1, {2: 1}))
        assert values[1] is POS_INF and values[2] is POS_INF

    def test_odd_cycle_is_minus_infinity(self):
        game = ParityGame(
            [0, 1, 2], [0, 0, 1], [1, 5, 2], [None] * 3, [(0,), (2, 0), (1,)], sink=0
        )
        values = play_values(game, Strategy(0, {0: 0, 1: 2}), Strategy(1, {2: 1}))
        assert values[1] is NEG_INF

    def test_prefix_counts_before_cached_suffix(self):
        inst = gen_table1(2)
        values = play_values(inst.game, inst.sigma0, inst.tau0)
        a1, a2 = inst.id_of("a1"), inst.id_of("a2")
        assert values[a1] == PlayValue.finite({3: 1, 5: 1})
        assert values[a2] == PlayValue.finite({5: 1})


class TestOptimalResponse:
    def test_single_node_game(self):
        game = ParityGame([0], [0], [0], [None], [(0,)], sink=0)
        valuation = enumerate_optimal_response(game, Strategy(0, {0: 0}))
        assert valuation.values == {0: PlayValue.empty()}

    def test_ladder_counterstrategy(self):
        inst = gen_table1(1)
        valuation = enumerate_optimal_response(inst.game, inst.sigma0)
        assert valuation.counter.choice[inst.id_of("d1")] == inst.id_of("a2")

    def test_budget_guard(self):
        inst = gen_table1(3)
        tight = EnumerationBudget(max_nodes=4)
        with pytest.raises(BudgetExceededError):
            enumerate_optimal_response(inst.game, inst.sigma0, tight)


class TestOptimalStrategy:
    def test_smallest_ladder_player0(self):
        inst = gen_table1(1)
        sigma, _, unique = enumerate_optimal_strategy(inst.game, 0)
        assert sigma.choice[inst.id_of("a1")] == inst.id_of("d2")
        assert unique

    def test_smallest_ladder_player1(self):
        inst = gen_table1(1)
        tau, _, unique = enumerate_optimal_strategy(inst.game, 1)
        assert tau.choice[inst.id_of("d1")] == inst.id_of("a2")
        assert unique

    def test_second_ladder_player0(self):
        inst = gen_table1(2)
        sigma, _, _ = enumerate_optimal_strategy(inst.game, 0)
        assert sigma.choice[inst.id_of("a1")] == inst.id_of("a2")
        assert sigma.choice[inst.id_of("a2")] == inst.id_of("d3")

    def test_budget_guard(self):
        inst = gen_table1(4)
        with pytest.raises(BudgetExceededError):
            enumerate_optimal_strategy(inst.game, 0, EnumerationBudget(max_strategies=10))


class TestBruteForceWinners:
    def test_even_self_loop(self):
        game = ParityGame([0], [0], [2], [None], [(0,)])
        w0, w1 = brute_force_winners(game)
        assert w0 == {0} and w1 == frozenset()

    def test_two_node_odd_cycle_owned_by_player1(self):
        game = ParityGame([0, 1], [1, 1], [3, 1], [None] * 2, [(1,), (0,)])
        w0, w1 = brute_force_winners(game)
        assert w1 == {0, 1}

    def test_winning_sets_partition_nodes(self):
        rng = random.Random(107)
        for _ in range(60):
            game = random_parity_game(rng)
            w0, w1 = brute_force_winners(game)
            assert w0 | w1 == set(game.node_ids)
            assert not w0 & w1

    def test_minmax_equals_maxmin(self):
        # positional determinacy: the dual enumeration gives the complement
        rng = random.Random(109)
        for _ in range(25):
            game = random_parity_game(rng, max_nodes=5)
            w0, w1 = brute_force_winners(game)
            dual_w1 = set()
            sigmas = list(all_strategies(game, 0))
            from oracle_reference import walk_winner

            for tau in all_strategies(game, 1):
                wins = set(game.node_ids)
                for sigma in sigmas:
                    wins = {v for v in wins if walk_winner(game, sigma, tau, v) == 1}
                    if not wins:
                        break
                dual_w1 |= wins
            assert dual_w1 == w1


class TestAdmissibilityByExhaustion:
    def test_matches_engine_on_ladder(self):
        inst = gen_table1(2)
        assert is_admissible_bruteforce(inst.game, inst.sigma0)
        bad = Strategy(0, dict(inst.sigma0.choice))
        bad.choice[inst.id_of("a2")] = inst.id_of("a1")
        assert not is_admissible_bruteforce(inst.game, bad)
