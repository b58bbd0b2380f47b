"""Cycle breaking, sink-game construction, winner extraction."""

import hashlib
import random

import pytest

from conftest import random_parity_game
from sinkgames.game import (
    PLAYER0,
    PLAYER1,
    NodeRecord,
    ParityGame,
    Strategy,
    validate_game,
)
from sinkgames import reduction
from sinkgames.oracle import brute_force_winners, walk_winner, all_strategies
from sinkgames.pgsolver import parse_pgsolver, write_pgsolver
from sinkgames.reduction import (
    break_same_owner_cycles,
    extract_winners,
    reduce_game,
    solve_winners,
    to_sink_game,
    trivial_strategies,
)
from sinkgames.rules import switch_all_rule
from sinkgames.solvers import SolveResult, IterationTrace, SolverInvariantError, run_si
from sinkgames.valuation import is_admissible


class TestBreakCycles:
    def test_single_same_owner_edge_subdivided(self):
        game = ParityGame(
            [NodeRecord(0, 1, 3, None), NodeRecord(1, 1, 5, None)],
            {0: (1,), 1: (0,)},
        )
        broken, breakers = break_same_owner_cycles(game)
        assert len(breakers) == 2
        for x, (u, w) in breakers.items():
            assert broken.owner(x) == PLAYER0
            assert broken.successors(x) == (w,)
            assert x in broken.successors(u)
            assert broken.priority(x) < min(broken.priority(0), broken.priority(1))

    def test_bipartite_game_unchanged(self):
        game = ParityGame(
            [NodeRecord(0, 0, 2, None), NodeRecord(1, 1, 3, None)],
            {0: (1,), 1: (0,)},
        )
        broken, breakers = break_same_owner_cycles(game)
        assert breakers == {}
        assert broken is game

    def test_no_same_owner_cycles_remain(self):
        rng = random.Random(83)
        for _ in range(40):
            game = random_parity_game(rng)
            broken, _ = break_same_owner_cycles(game)
            for u in broken.node_ids:
                for w in broken.successors(u):
                    assert broken.owner(u) != broken.owner(w)

    def test_priorities_shifted_to_stay_nonnegative(self):
        game = ParityGame(
            [NodeRecord(0, 1, 0, None), NodeRecord(1, 1, 1, None)],
            {0: (1,), 1: (0,)},
        )
        broken, _ = break_same_owner_cycles(game)
        assert min(broken.priority(v) for v in broken.node_ids) >= 0
        # an even shift keeps every parity
        assert broken.priority(0) % 2 == 0
        assert broken.priority(1) % 2 == 1


class TestToSinkGame:
    def test_rejects_same_owner_cycles(self):
        game = ParityGame(
            [NodeRecord(0, 1, 3, None), NodeRecord(1, 1, 5, None)],
            {0: (1,), 1: (0,)},
        )
        with pytest.raises(ValueError):
            to_sink_game(game)

    def test_structure_and_trivial_strategies(self):
        rng = random.Random(89)
        for _ in range(25):
            game = random_parity_game(rng)
            broken, breakers = break_same_owner_cycles(game)
            reduced, rmap = to_sink_game(broken, breakers, original=game)
            assert reduced.num_nodes == broken.num_nodes + 2
            assert reduced.num_edges == broken.num_edges + broken.num_nodes + 2
            assert validate_game(reduced, require_sink=True) == []
            assert reduced.priority(rmap.w) == rmap.pw
            assert rmap.pw % 2 == 0
            assert rmap.pw > max(
                reduced.priority(v) for v in reduced.node_ids if v != rmap.w
            )
            sigma, tau = trivial_strategies(reduced, rmap)
            assert is_admissible(reduced, sigma)
            assert is_admissible(reduced, tau)


def _decorated_game(rng: random.Random) -> ParityGame:
    """A random parity game with gaps in its ids, priorities that may be
    negative, and some labels."""
    game = random_parity_game(rng)
    ids = {v: 3 * v + rng.randint(0, 2) for v in game.node_ids}
    shift = rng.randint(-6, 2)
    nodes = [
        NodeRecord(ids[rec.id], rec.owner, rec.priority + shift, rng.choice([None, "", f"n{rec.id}"]))
        for rec in game.nodes
    ]
    edges = {ids[v]: tuple(ids[w] for w in game.successors(v)) for v in game.node_ids}
    return ParityGame(nodes, edges)


class TestReduceGame:
    def test_equals_the_two_public_steps(self):
        rng = random.Random(107)
        for _ in range(300):
            game = _decorated_game(rng)
            expected = to_sink_game(*break_same_owner_cycles(game), original=game)
            assert reduce_game(game) == expected

    def test_refuses_a_same_owner_edge_left_by_subdivision(self, monkeypatch):
        monkeypatch.setattr(reduction, "_subdivide", lambda cols: {})
        game = ParityGame(
            [NodeRecord(0, 1, 3, None), NodeRecord(1, 1, 5, None)],
            {0: (1,), 1: (1,)},
        )
        with pytest.raises(ValueError, match="joins two nodes of player 1"):
            reduce_game(game)

    def test_golden_output(self):
        """The ``reduce`` output of a seeded 2,000-node game, byte for byte
        as the original two-step implementation wrote it."""
        game = random_parity_game(random.Random(2000), min_nodes=2000, max_nodes=2000)
        reduced, _ = reduce_game(parse_pgsolver(write_pgsolver(game)))
        digest = hashlib.sha256(write_pgsolver(reduced).encode()).hexdigest()
        assert digest == "7c6c9a6ab630163b6817f18226882b424e3c4e81f0b0155f719536e55b0bbb36"


class TestExtractWinners:
    def test_even_self_loop_wins_for_player0(self):
        game = ParityGame([NodeRecord(0, 0, 2, None)], {0: (0,)})
        result = solve_winners(game)
        assert result.w0 == {0} and result.w1 == frozenset()

    def test_odd_self_loop_wins_for_player1(self):
        game = ParityGame([NodeRecord(0, 1, 3, None)], {0: (0,)})
        result = solve_winners(game)
        assert result.w1 == {0} and result.w0 == frozenset()

    def test_rejects_non_optimal_input(self):
        game = ParityGame([NodeRecord(0, 0, 2, None)], {0: (0,)})
        reduced, rmap = reduce_game(game)
        sigma0, tau0 = trivial_strategies(reduced, rmap)
        fake = SolveResult(sigma0, tau0, None, None, 0, IterationTrace(()))
        with pytest.raises(SolverInvariantError):
            extract_winners(reduced, rmap, fake)

    def test_requires_both_strategies(self):
        game = ParityGame([NodeRecord(0, 0, 2, None)], {0: (0,)})
        reduced, rmap = reduce_game(game)
        sigma0, _ = trivial_strategies(reduced, rmap)
        result = run_si(reduced, sigma0, switch_all_rule())
        with pytest.raises(ValueError):
            extract_winners(reduced, rmap, result)

    def test_matches_brute_force_on_random_games(self):
        rng = random.Random(97)
        for _ in range(120):
            game = random_parity_game(rng)
            expected = brute_force_winners(game)
            result = solve_winners(game)
            assert (result.w0, result.w1) == expected

    def test_winning_strategies_actually_win(self):
        rng = random.Random(101)
        checked = 0
        while checked < 40:
            game = random_parity_game(rng, max_nodes=5)
            result = solve_winners(game)
            full0 = {
                v: result.strategy0.get(v, game.successors(v)[0])
                for v in game.nodes_of(PLAYER0)
            }
            full1 = {
                v: result.strategy1.get(v, game.successors(v)[0])
                for v in game.nodes_of(PLAYER1)
            }
            sigma = Strategy(PLAYER0, full0)
            tau = Strategy(PLAYER1, full1)
            for response in all_strategies(game, PLAYER1):
                for v in result.w0:
                    assert walk_winner(game, sigma, response, v) == 0
            for response in all_strategies(game, PLAYER0):
                for v in result.w1:
                    assert walk_winner(game, response, tau, v) == 1
            checked += 1

    def test_strategy_choices_stay_in_original_nodes(self):
        rng = random.Random(103)
        for _ in range(30):
            game = random_parity_game(rng)
            result = solve_winners(game)
            for v, w in {**result.strategy0, **result.strategy1}.items():
                assert v in game and w in game
                assert game.has_edge(v, w)
