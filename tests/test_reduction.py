"""Cycle breaking, sink-game construction, winner extraction."""

import hashlib
import random
import sys
import weakref

import pytest
from hypothesis import given, settings

from conftest import random_parity_game
from oracle_reference import brute_force_winners, walk_winner, all_strategies
from sinkgames.game import (
    PLAYER0,
    PLAYER1,
    ParityGame,
    Strategy,
    validate_game,
)
from sinkgames import reduction
from sinkgames.pgsolver import parse_pgsolver, write_pgsolver
from sinkgames.reduction import (
    extract_winners,
    reduce_game,
    solve_winners,
    trivial_strategies,
)
from sinkgames.rules import switch_all_rule
from sinkgames.solvers import SolverInvariantError, run_si, verify_optimal
from sinkgames.valuation import is_admissible, valuate
from reduction_reference import two_step_reduction
from test_pgsolver import valid_texts
from winning_check import winning_problems
from zielonka_reference import winning_regions


class TestBreakCycles:
    def test_single_same_owner_edge_subdivided(self):
        game = ParityGame([0, 1], [1, 1], [3, 5], [None] * 2, [(1,), (0,)])
        reduced, rmap = reduce_game(game)
        assert len(rmap.breakers) == 2
        for x, (u, w) in rmap.breakers.items():
            assert reduced.owner(x) == PLAYER0
            # the original target, then the escape of a player 0 node
            assert reduced.successors(x) == (w, rmap.sink)
            assert x in reduced.successors(u)
            assert reduced.priority(x) < min(reduced.priority(0), reduced.priority(1))

    def test_bipartite_game_unchanged(self):
        game = ParityGame([0, 1], [0, 1], [2, 3], [None] * 2, [(1,), (0,)])
        reduced, rmap = reduce_game(game)
        assert rmap.breakers == {}
        escape = (rmap.sink, rmap.w)
        for v in game.node_ids:
            for column in (ParityGame.owner, ParityGame.priority, ParityGame.label):
                assert column(reduced, v) == column(game, v)
            assert reduced.successors(v) == game.successors(v) + (escape[game.owner(v)],)

    def test_no_same_owner_cycles_remain(self):
        rng = random.Random(83)
        games = [random_parity_game(rng) for _ in range(40)]
        games += [_decorated_game(rng) for _ in range(100)]
        games.append(random_parity_game(random.Random(2000), min_nodes=2000, max_nodes=2000))
        for game in games:
            _assert_no_same_owner_edge(game)

    @settings(max_examples=100, deadline=None)
    @given(valid_texts())
    def test_no_same_owner_cycles_remain_in_drawn_games(self, text):
        _assert_no_same_owner_edge(parse_pgsolver(text))

    def test_priorities_shifted_to_stay_nonnegative(self):
        game = ParityGame([0, 1], [1, 1], [0, 1], [None] * 2, [(1,), (0,)])
        reduced, _ = reduce_game(game)
        assert min(reduced.priority(v) for v in reduced.node_ids) >= 0
        # an even shift keeps every parity
        assert reduced.priority(0) % 2 == 0
        assert reduced.priority(1) % 2 == 1


class TestToSinkGame:
    def test_structure_and_trivial_strategies(self):
        rng = random.Random(89)
        for _ in range(25):
            game = random_parity_game(rng)
            reduced, rmap = reduce_game(game)
            k = len(rmap.breakers)
            assert reduced.num_nodes == game.num_nodes + k + 2
            # a breaker adds an edge and an escape, an original node an
            # escape, and the sink and w one edge each
            assert reduced.num_edges == game.num_edges + 2 * k + game.num_nodes + 2
            assert validate_game(reduced, require_sink=True) == []
            assert reduced.priority(rmap.w) == rmap.pw
            assert rmap.pw % 2 == 0
            assert rmap.pw > max(
                reduced.priority(v) for v in reduced.node_ids if v != rmap.w
            )
            sigma, tau = trivial_strategies(reduced, rmap)
            assert is_admissible(reduced, sigma)
            assert is_admissible(reduced, tau)


def _assert_no_same_owner_edge(game: ParityGame) -> None:
    """No edge of the reduced game but an escape joins two nodes of one
    owner: subdivision guarantees this by construction, and reduce_game
    relies on it without a check of its own."""
    reduced, rmap = reduce_game(game)
    for u in reduced.node_ids:
        for w in reduced.successors(u):
            if w not in (rmap.sink, rmap.w):
                assert reduced.owner(u) != reduced.owner(w), (u, w)


def _decorated_game(rng: random.Random) -> ParityGame:
    """A random parity game with gaps in its ids, priorities that may be
    negative, and some labels."""
    nodes, owners, priorities, _, successors = random_parity_game(rng).columns()
    ids = {v: 3 * v + rng.randint(0, 2) for v in nodes}
    shift = rng.randint(-6, 2)
    labels = [rng.choice([None, "", f"n{v}"]) for v in nodes]
    return ParityGame(
        list(ids.values()), owners, [p + shift for p in priorities], labels,
        [[ids[w] for w in row] for row in successors],
    )


class TestReduceGame:
    def test_equals_the_two_public_steps(self):
        # the steps are frozen in reduction_reference, which shares no code
        # with the library
        rng = random.Random(107)
        for _ in range(300):
            game = _decorated_game(rng)
            cols, breakers, sink, w, pw = two_step_reduction(*game.columns())
            reduced, rmap = reduce_game(game)
            assert (reduced.columns(), reduced.sink) == (cols, sink)
            assert rmap == reduction.ReductionMap(frozenset(game.node_ids), breakers, w, sink, pw)

    def test_golden_output(self):
        """The ``reduce`` output of a seeded 2,000-node game, byte for byte
        as the original two-step implementation wrote it."""
        game = random_parity_game(random.Random(2000), min_nodes=2000, max_nodes=2000)
        reduced, _ = reduce_game(parse_pgsolver(write_pgsolver(game)))
        digest = hashlib.sha256(write_pgsolver(reduced).encode()).hexdigest()
        assert digest == "7c6c9a6ab630163b6817f18226882b424e3c4e81f0b0155f719536e55b0bbb36"

    def test_a_game_without_nodes_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^a game without nodes has no sink game$"):
            reduce_game(ParityGame([], [], [], [], []))

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="before 3.11 a caller holds its call arguments"
    )
    def test_the_input_game_is_freed_before_the_sink_game_is_built(self, monkeypatch):
        # reduce_game keeps copies of the columns only, so a game that the
        # caller passes without keeping it is gone before the sink game exists
        class Watched(ParityGame):
            __slots__ = ("__weakref__",)

        refs = []

        def watched(game: ParityGame) -> Watched:
            copy = Watched(*game.columns())
            refs.append(weakref.ref(copy))
            return copy

        def build(*args, **kwargs):
            assert refs[0]() is None
            return ParityGame(*args, **kwargs)

        source = _decorated_game(random.Random(5))
        monkeypatch.setattr(reduction, "ParityGame", build)
        reduced, _ = reduce_game(watched(source))
        assert reduced == reduce_game(source)[0]


class TestExtractWinners:
    def test_even_self_loop_wins_for_player0(self):
        game = ParityGame([0], [0], [2], [None], [(0,)])
        result = solve_winners(game)
        assert result.w0 == {0} and result.w1 == frozenset()

    def test_odd_self_loop_wins_for_player1(self):
        game = ParityGame([0], [1], [3], [None], [(0,)])
        result = solve_winners(game)
        assert result.w1 == {0} and result.w0 == frozenset()

    def test_rejects_non_optimal_input(self):
        game = ParityGame([0], [0], [2], [None], [(0,)])
        reduced, rmap = reduce_game(game)
        sigma0, tau0 = trivial_strategies(reduced, rmap)
        with pytest.raises(SolverInvariantError):
            extract_winners(reduced, rmap, sigma0, tau0)

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
                assert w in game.successors(v)


def _seeded_game(seed: int, n: int) -> tuple[dict, dict, dict]:
    """The owners, priorities and successors of a seeded random game past
    the brute-force oracle's reach."""
    rng = random.Random(f"winning/{seed}/{n}")
    owner = {v: rng.randint(0, 1) for v in range(n)}
    priority = {v: rng.randint(0, 2 * n) for v in range(n)}
    successors = {v: tuple(rng.sample(range(n), rng.randint(1, 3))) for v in range(n)}
    return owner, priority, successors


def _parity_game(owner: dict, priority: dict, successors: dict) -> ParityGame:
    ids = list(owner)
    return ParityGame(
        ids, [owner[v] for v in ids], [priority[v] for v in ids], [None] * len(ids),
        [successors[v] for v in ids],
    )


def _checked_winners(owner: dict, priority: dict, successors: dict) -> reduction.WinnerResult:
    """``solve_winners`` of the game, which must pass ``winning_check``."""
    result = solve_winners(_parity_game(owner, priority, successors))
    claim = (set(result.w0), set(result.w1), result.strategy0, result.strategy1)
    assert winning_problems(owner, priority, successors, *claim) == []
    return result


class TestWinningStrategies:
    """``solve_winners`` on games past the brute-force oracle's reach, each
    result checked by ``winning_check``, which shares no code with the
    solver."""

    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_results_pass_the_independent_check(self, seed, n):
        self._check(seed, n)

    def test_a_1600_node_game_passes_the_independent_check(self):
        self._check(1, 1600)

    def _check(self, seed: int, n: int) -> None:
        owner, priority, successors = _seeded_game(seed, n)
        result = _checked_winners(owner, priority, successors)
        claim = (set(result.w0), set(result.w1), result.strategy0, result.strategy1)
        rng = random.Random(seed)
        for v in rng.sample(range(n), 5):
            w0, w1 = claim[0] ^ {v}, claim[1] ^ {v}
            assert winning_problems(owner, priority, successors, w0, w1, *claim[2:]), v

    def test_check_rejects_a_losing_cycle(self):
        # 0 -> 1 -> 0 tops at 3 for player 0, while 2's self-loop tops at 4
        owner, priority = {0: 0, 1: 1, 2: 1}, {0: 2, 1: 3, 2: 4}
        successors = {0: (1, 2), 1: (0,), 2: (2,)}
        assert winning_problems(owner, priority, successors, {0, 1, 2}, set(), {0: 2}, {}) == []
        assert winning_problems(owner, priority, successors, {0, 1, 2}, set(), {0: 1}, {}) == [
            "W0 holds a cycle through 1 with top priority of parity 1"
        ]
        # the cycle 0 -> 1 -> 0 tops at 4, but 1 -> 2 -> 1 inside it tops at 3
        owner, priority = {0: 1, 1: 1, 2: 1}, {0: 4, 1: 3, 2: 1}
        successors = {0: (1,), 1: (0, 2), 2: (1,)}
        assert winning_problems(owner, priority, successors, {0, 1, 2}, set(), {}, {}) == [
            "W0 holds a cycle through 1 with top priority of parity 1"
        ]


def _drawn_game(rng: random.Random, n: int) -> tuple[dict, dict, dict]:
    """A game of ``n`` nodes with uniform owners, priorities in 0..2n and
    1-3 distinct successors per node, drawn from ``rng``."""
    heads = [(rng.randint(0, 1), rng.randint(0, 2 * n)) for _ in range(n)]
    successors = {v: tuple(rng.sample(range(n), rng.randint(1, min(3, n)))) for v in range(n)}
    return dict(enumerate(o for o, _ in heads)), dict(enumerate(q for _, q in heads)), successors


def _shaped_game(rng: random.Random, shape: str) -> tuple[dict, dict, dict]:
    """A game of 5-300 nodes in a shape ``_drawn_game`` rarely draws:
    ``dense`` (1-8 successors), ``few-priorities`` (2-4 distinct ones) or
    ``self-loops`` (about half the nodes list themselves)."""
    n = rng.randint(5, 300)
    pool = range(2 * n + 1)
    if shape == "few-priorities":
        pool = rng.sample(pool, rng.randint(2, 4))
    degree = 8 if shape == "dense" else 3
    owner = {v: rng.randint(0, 1) for v in range(n)}
    priority = {v: rng.choice(pool) for v in range(n)}
    successors = {}
    for v in range(n):
        row = rng.sample(range(n), rng.randint(1, degree))
        if shape == "self-loops" and v not in row and rng.random() < 0.5:
            row.insert(rng.randint(0, len(row)), v)
        successors[v] = tuple(row)
    return owner, priority, successors


class TestZielonkaReference:
    """``solve_winners`` against Zielonka's algorithm, which shares no code
    with it, on games far past the brute-force oracle's reach; every result
    also passes ``winning_check``."""

    def test_winners_match_on_seeded_games(self):
        games = [_drawn_game(rng, rng.randint(5, 400)) for rng in map(random.Random, range(200))]
        games += [_drawn_game(random.Random(f"large/{n}"), n) for n in (1600, 5000)]
        both_won = 0
        for game in games:
            result = _checked_winners(*game)
            w0, w1 = winning_regions(*game)
            assert (set(result.w0), set(result.w1)) == (w0, w1)
            both_won += bool(w0) and bool(w1)
        assert both_won > 150

    @pytest.mark.parametrize("shape", ["dense", "few-priorities", "self-loops"])
    def test_winners_match_on_rare_shapes(self, shape):
        rng = random.Random(f"shape/{shape}")
        both_won = 0
        for _ in range(50):
            game = _shaped_game(rng, shape)
            result = _checked_winners(*game)
            w0, w1 = winning_regions(*game)
            assert (set(result.w0), set(result.w1)) == (w0, w1)
            both_won += bool(w0) and bool(w1)
        assert both_won > 15


class TestBestResponse:
    """Player 1's optimal strategy in a reduced game is the best response
    to player 0's optimal strategy, as ``solve_winners`` takes it."""

    @pytest.mark.parametrize(
        "seed, n", [(seed, n) for n in (20, 50, 100, 200, 400) for seed in (1, 2, 3)] + [(1, 1600)]
    )
    def test_counterstrategy_of_the_optimum_is_optimal(self, seed, n):
        reduced, rmap = reduce_game(_parity_game(*_seeded_game(seed, n)))
        sigma0, _ = trivial_strategies(reduced, rmap)
        result = run_si(reduced, sigma0, switch_all_rule())
        tau = result.xi_sigma.counter
        assert verify_optimal(reduced, result.sigma, tau).ok
        # player 1's codes are negated, so its values equal player 0's
        assert valuate(reduced, tau).codes == tuple(-c for c in result.xi_sigma.codes)

    def test_solve_winners_runs_strategy_improvement_once(self, monkeypatch):
        players = []

        def counted(game, start, rule):
            players.append(start.player)
            return run_si(game, start, rule)

        monkeypatch.setattr(reduction, "run_si", counted)
        owner, priority, successors = _seeded_game(1, 100)
        _checked_winners(owner, priority, successors)
        assert players == [PLAYER0]


@pytest.fixture(
    scope="module",
    params=[(1, 50), (2, 100), (3, 200), (4, 400), (5, 800)],
    ids=lambda param: "{}-{}".format(*param),
)
def solved(request):
    """A seeded game past the oracle's reach and its checked winners."""
    game = _seeded_game(*request.param)
    return game, _checked_winners(*game)


class TestMetamorphic:
    """Relations between the winners of two games, which need no oracle and
    so hold at any size; every result also passes ``winning_check``."""

    def test_dual_game_swaps_the_winners(self, solved):
        (owner, priority, successors), result = solved
        dual = _checked_winners(
            {v: 1 - o for v, o in owner.items()}, {v: q + 1 for v, q in priority.items()}, successors
        )
        assert (dual.w0, dual.w1) == (result.w1, result.w0)

    def test_renumbering_maps_the_winners(self, solved):
        (owner, priority, successors), result = solved
        n = len(owner)
        new_id = dict(zip(owner, random.Random(n).sample(range(3 * n), n)))
        renamed = _checked_winners(
            {new_id[v]: o for v, o in owner.items()},
            {new_id[v]: q for v, q in priority.items()},
            {new_id[v]: tuple(new_id[w] for w in ws) for v, ws in successors.items()},
        )
        assert renamed.w0 == {new_id[v] for v in result.w0}
        assert renamed.w1 == {new_id[v] for v in result.w1}

    def test_even_priority_shift_changes_nothing(self, solved):
        (owner, priority, successors), result = solved
        for shift in (6, -2 * len(owner) - 2):
            shifted = {v: q + shift for v, q in priority.items()}
            assert _checked_winners(owner, shifted, successors) == result, shift

    def test_unreachable_component_changes_nothing_on_the_original(self, solved):
        (owner, priority, successors), result = solved
        n = len(owner)
        extra_owner, extra_priority, extra_successors = _seeded_game(7, n // 2)
        # the extra nodes n.. lead among themselves and now and then into
        # the original nodes, but no original node leads to them
        rng = random.Random(n)
        owner = owner | {n + v: o for v, o in extra_owner.items()}
        priority = priority | {n + v: q for v, q in extra_priority.items()}
        successors = successors | {
            n + v: tuple(n + w for w in ws) + ((rng.randrange(n),) if v % 3 == 0 else ())
            for v, ws in extra_successors.items()
        }
        both = _checked_winners(owner, priority, successors)
        assert both.w0 & set(range(n)) == result.w0
        assert both.w1 & set(range(n)) == result.w1
