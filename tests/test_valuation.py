"""Valuation fixpoint, counterstrategies, improving moves, weak candidates."""

import gc
import random

import pytest

from conftest import (
    admissible_pair,
    random_admissible_strategy,
    random_parity_game,
    random_sink_game,
)
from oracle_reference import compare, enumerate_optimal_response, play_values
from sinkgames.cli import _distances_to_sink
from sinkgames.families import gen_table1, gen_table2
from sinkgames.game import ParityGame, Strategy
from sinkgames.playvalues import PlayValue
from sinkgames.reduction import reduce_game, trivial_strategies
from sinkgames.rules import switch_all_rule
from sinkgames.solvers import run_gssi, run_si, run_ssi, verify_optimal
from sinkgames import valuation as valuation_module
from sinkgames.valuation import (
    GameIndex,
    NotAdmissibleError,
    game_index,
    improving_moves,
    is_admissible,
    j_set,
    solve_values,
    successors_first,
    sweep_to_fixpoint,
    valuate,
)
from valuation_reference import ReferenceGame, full_sweeps


def pv(mapping):
    return PlayValue.finite(mapping)


class TestValuateLadder:
    def test_player0_start_values(self):
        inst = gen_table1(1)
        xi = valuate(inst.game, inst.sigma0)
        a1, a2, d1, d2 = (inst.id_of(x) for x in ("a1", "a2", "d1", "d2"))
        assert xi.values == {a1: pv({3: 1}), a2: pv({}), d1: pv({4: 1}), d2: pv({6: 1})}
        assert xi.counter.choice == {d1: a2, d2: a2}

    def test_player1_start_values(self):
        inst = gen_table1(1)
        xi = valuate(inst.game, inst.tau0)
        a1, a2, d1, d2 = (inst.id_of(x) for x in ("a1", "a2", "d1", "d2"))
        assert xi.values[a1] == pv({3: 1, 6: 1})
        assert xi.values[d1] == pv({4: 1, 6: 1})
        assert xi.counter.choice[a1] == d2

    def test_sink_value_is_empty(self):
        inst = gen_table1(2)
        xi = valuate(inst.game, inst.sigma0)
        assert xi.values[inst.game.sink] == pv({})

    def test_inadmissible_strategy_detected(self):
        game = ParityGame(
            [0, 1, 2], [0, 0, 1], [1, 3, 4], [None] * 3, [(0,), (0, 1, 2), (0, 1)], sink=0
        )
        with pytest.raises(NotAdmissibleError):
            valuate(game, Strategy(0, {0: 0, 1: 1}))

    def test_isolated_bad_cycle_detected(self):
        # the bad cycle cannot reach the sink: still inadmissible
        game = ParityGame([0, 1], [0, 0], [1, 3], [None] * 2, [(0,), (0, 1)], sink=0)
        with pytest.raises(NotAdmissibleError):
            valuate(game, Strategy(0, {0: 0, 1: 1}))


class TestValuateProperties:
    def test_matches_oracle_exhaustively_on_template(self):
        # every owner split, priority permutation, and cross-owner edge
        # pattern over a sink plus three nodes; every strategy of both
        # players; admissible ones must valuate exactly as the oracle says
        from itertools import permutations, product

        from oracle_reference import all_strategies, is_admissible_bruteforce

        checked_games = 0
        checked_strategies = 0
        for owners in product((0, 1), repeat=3):
            for priorities in permutations((1, 2, 3)):
                cross = {
                    i: [j for j in (1, 2, 3) if owners[j - 1] != owners[i - 1]]
                    for i in (1, 2, 3)
                }
                extra_choices = [
                    [tuple(c) for k in range(len(cross[i]) + 1)
                     for c in [cross[i][:k]]]
                    for i in (1, 2, 3)
                ]
                for extras in product(*extra_choices):
                    game = ParityGame(
                        range(4), (0, *owners), (0, *priorities), [None] * 4,
                        [(0,)] + [(0,) + extra for extra in extras], sink=0,
                    )
                    checked_games += 1
                    for player in (0, 1):
                        for strategy in all_strategies(game, player):
                            if not is_admissible_bruteforce(game, strategy):
                                with pytest.raises(NotAdmissibleError):
                                    valuate(game, strategy)
                                continue
                            engine = valuate(game, strategy)
                            oracle = enumerate_optimal_response(game, strategy)
                            assert engine.values == oracle.values
                            checked_strategies += 1
        # 6 priority orders x (2 one-owner splits x 1 edge pattern
        # + 6 mixed splits x 12 edge patterns)
        assert checked_games == 6 * (2 * 1 + 6 * 12)
        assert checked_strategies > 1000

    def test_matches_oracle_on_random_games(self):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            game = random_sink_game(rng)
            for player in (0, 1):
                strategy = random_admissible_strategy(game, player, rng)
                if strategy is None:
                    continue
                engine = valuate(game, strategy)
                oracle = enumerate_optimal_response(game, strategy)
                assert engine.values == oracle.values
                checked += 1

    def test_counterstrategy_witnesses_valuation(self):
        rng = random.Random(29)
        checked = 0
        while checked < 40:
            game = random_sink_game(rng)
            for player in (0, 1):
                strategy = random_admissible_strategy(game, player, rng)
                if strategy is None:
                    continue
                xi = valuate(game, strategy)
                pair = (
                    (strategy, xi.counter) if player == 0 else (xi.counter, strategy)
                )
                walked = play_values(game, *pair)
                assert walked == xi.values
                checked += 1

    def test_all_values_finite_for_admissible(self):
        rng = random.Random(31)
        for _ in range(25):
            game = random_sink_game(rng)
            strategy = random_admissible_strategy(game, 0, rng)
            if strategy is None:
                continue
            xi = valuate(game, strategy)
            assert all(value.is_finite for value in xi.values.values())


class TestImprovingMoves:
    def test_ladder_improving_sets(self):
        inst = gen_table1(1)
        a1, a2, d1, d2 = (inst.id_of(x) for x in ("a1", "a2", "d1", "d2"))
        xi_sigma = valuate(inst.game, inst.sigma0)
        assert improving_moves(inst.game, inst.sigma0, xi_sigma) == {(a1, d2)}
        xi_tau = valuate(inst.game, inst.tau0)
        assert improving_moves(inst.game, inst.tau0, xi_tau) == {(d1, a2)}

    @pytest.mark.parametrize("choice", [{}, {0: 5}, {99: 0}], ids=["partial", "non-edge", "stray"])
    def test_invalid_strategy_is_refused(self, choice):
        # a missing choice is not read as the first successor, nor a stray
        # node as a KeyError
        inst = gen_table1(2)
        xi_sigma, xi_tau = valuate(inst.game, inst.sigma0), valuate(inst.game, inst.tau0)
        with pytest.raises(ValueError, match="strategy"):
            improving_moves(inst.game, Strategy(0, choice), xi_sigma)
        with pytest.raises(ValueError, match="strategy"):
            j_set(inst.game, Strategy(0, choice), xi_tau)

    def test_optimal_strategy_has_none(self):
        from sinkgames.families import optimal_table1

        inst = gen_table1(1)
        sigma, _ = optimal_table1(1)
        xi = valuate(inst.game, sigma)
        assert improving_moves(inst.game, sigma, xi) == frozenset()

    def test_monotone_improvement(self):
        rng = random.Random(37)
        steps = 0
        while steps < 120:
            game = random_sink_game(rng)
            player = rng.randint(0, 1)
            strategy = random_admissible_strategy(game, player, rng)
            if strategy is None:
                continue
            xi = valuate(game, strategy)
            moves = sorted(improving_moves(game, strategy, xi))
            if not moves:
                continue
            by_source = {}
            for v, w in moves:
                by_source.setdefault(v, []).append(w)
            subset = [
                (v, rng.choice(ws))
                for v, ws in by_source.items()
                if rng.random() < 0.7
            ]
            if not subset:
                subset = [moves[0]]
            rewired = strategy.rewired(subset)
            xi_new = valuate(game, rewired)  # admissibility closure: no raise
            orders = [
                compare(xi_new.values[v], xi.values[v]) for v in game.node_ids
            ]
            if player == 0:
                assert all(order >= 0 for order in orders)
                assert any(order > 0 for order in orders)
            else:
                assert all(order <= 0 for order in orders)
                assert any(order < 0 for order in orders)
            steps += 1


class TestJSet:
    def test_contains_current_choices(self):
        rng = random.Random(41)
        for _ in range(30):
            game = random_sink_game(rng)
            pair = admissible_pair(game, rng)
            if pair is None:
                continue
            sigma, tau = pair
            xi_tau = valuate(game, tau)
            j_sigma = j_set(game, sigma, xi_tau)
            assert all((v, w) in j_sigma for v, w in sigma.choice.items())

    def test_ladder_example(self):
        inst = gen_table1(1)
        a1, d2 = inst.id_of("a1"), inst.id_of("d2")
        xi_tau = valuate(inst.game, inst.tau0)
        assert (a1, d2) in j_set(inst.game, inst.sigma0, xi_tau)

    def test_counterstrategy_edges_always_included(self):
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            game = random_sink_game(rng)
            pair = admissible_pair(game, rng)
            if pair is None:
                continue
            sigma, tau = pair
            xi_sigma = valuate(game, sigma)
            xi_tau = valuate(game, tau)
            sigma_bar, tau_bar = xi_sigma.counter, xi_tau.counter
            j_tau = j_set(game, tau, xi_sigma)
            assert all((v, w) in j_tau for v, w in sigma_bar.choice.items())
            j_sigma = j_set(game, sigma, xi_tau)
            assert all((v, w) in j_sigma for v, w in tau_bar.choice.items())
            checked += 1

    def test_symmetric_candidates_within_generalized(self):
        rng = random.Random(47)
        checked = 0
        while checked < 60:
            game = random_sink_game(rng)
            pair = admissible_pair(game, rng)
            if pair is None:
                continue
            sigma, tau = pair
            xi_sigma, xi_tau = valuate(game, sigma), valuate(game, tau)
            i_sigma = improving_moves(game, sigma, xi_sigma)
            i_tau = improving_moves(game, tau, xi_tau)
            tau_bar_edges = set(xi_tau.counter.choice.items())
            sigma_bar_edges = set(xi_sigma.counter.choice.items())
            assert (i_sigma & tau_bar_edges) <= (i_sigma & j_set(game, sigma, xi_tau))
            assert (i_tau & sigma_bar_edges) <= (i_tau & j_set(game, tau, xi_sigma))
            checked += 1


class TestEncodedFilters:
    """The encoded candidate sets against a reference computed in the play
    value order from decoded valuations."""

    @staticmethod
    def reference(game, sigma, tau):
        xs, xt = valuate(game, sigma).values, valuate(game, tau).values

        def edges(strategy, values, strict):
            sign = 1 if strategy.player == 0 else -1
            out = set()
            for v in game.nodes_of(strategy.player):
                for w in game.successors(v):
                    order = sign * compare(values[w], values[strategy.choice[v]])
                    if order > 0 or (order == 0 and not strict):
                        out.add((v, w))
            return out

        mismatched = tuple(v for v in game.node_ids if compare(xs[v], xt[v]) != 0)
        return {
            "i_sigma": edges(sigma, xs, True),
            "i_tau": edges(tau, xt, True),
            "j_sigma": edges(sigma, xt, False),
            "j_tau": edges(tau, xs, False),
            "mismatched": mismatched,
        }

    def test_match_decoded_reference_on_non_optimal_pairs(self):
        rng = random.Random(163)
        checked = 0
        with_mismatch = 0
        while checked < 80:
            game = random_sink_game(rng, max_nodes=10)
            pair = admissible_pair(game, rng)
            if pair is None:
                continue
            sigma, tau = pair
            certificate = verify_optimal(game, sigma, tau)
            if certificate.ok:
                continue
            ref = self.reference(game, sigma, tau)
            xi_sigma, xi_tau = valuate(game, sigma), valuate(game, tau)
            assert certificate.improving_sigma == ref["i_sigma"]
            assert certificate.improving_tau == ref["i_tau"]
            assert certificate.mismatched_nodes == ref["mismatched"]
            assert improving_moves(game, sigma, xi_sigma) == ref["i_sigma"]
            assert improving_moves(game, tau, xi_tau) == ref["i_tau"]
            assert j_set(game, sigma, xi_tau) == ref["j_sigma"]
            assert j_set(game, tau, xi_sigma) == ref["j_tau"]
            with_mismatch += bool(ref["mismatched"])
            checked += 1
        assert with_mismatch > 20


def _scanned_counter(xi):
    """The opponent's best response to ``xi``, found by scanning every
    successor of every opponent node, the sink included: the least code,
    smallest id on ties."""
    gi, codes = xi.gi, xi.codes
    return {
        gi.ids[v]: gi.ids[min(gi.succ[v], key=lambda w: (codes[w], gi.ids[w]))]
        for v in range(len(gi.ids))
        if gi.owner[v] != xi.player
    }


class TestCounterReference:
    """``Valuation.counter`` reads the response off the fixpoint equations;
    a scan of every successor must find the same one at every opponent
    node. The sink, which is never relaxed, is the node where the equation
    does not hold."""

    @staticmethod
    def check(xi):
        expected = _scanned_counter(xi)
        assert xi.counter.choice == expected
        return xi.gi.ids[xi.gi.sink] in expected

    def test_seeded_reduced_games(self):
        rng = random.Random(191)
        sink_owned = 0
        for _ in range(40):
            game, rmap = reduce_game(random_parity_game(rng, min_nodes=8, max_nodes=24))
            for strategy in trivial_strategies(game, rmap):
                sink_owned += self.check(valuate(game, strategy))
        # the reduced sink belongs to player 0, so every tau valuation
        # puts it among the opponent's nodes
        assert sink_owned == 40

    def test_table_instances(self):
        for inst in (gen_table1(1), gen_table1(5), gen_table2(1), gen_table2(3)):
            for strategy in (inst.sigma0, inst.tau0):
                self.check(valuate(inst.game, strategy))

    def test_sink_with_an_edge_to_another_node(self):
        game = ParityGame(
            [0, 1, 2], [0, 1, 0], [1, 3, 2], [None] * 3, [(1, 0), (0, 2), (1, 0)], sink=0
        )
        for strategy in (Strategy(0, {0: 1, 2: 0}), Strategy(1, {1: 0})):
            xi = valuate(game, strategy)
            sink_owned = self.check(xi)
            assert sink_owned == (strategy.player == 1)


def _live_indexes():
    return sum(isinstance(obj, GameIndex) for obj in gc.get_objects())


class TestIndexCache:
    def test_one_index_per_game(self):
        game = gen_table1(3).game
        assert game_index(game) is game_index(game)

    def test_an_equal_game_gets_its_own_index(self):
        game = gen_table1(3).game
        twin = ParityGame(*game.columns(), sink=game.sink)
        assert twin == game and twin is not game
        assert game_index(twin) is not game_index(game)
        assert game_index(twin).ids == game_index(game).ids

    def test_discarded_games_leave_the_cache(self):
        gc.collect()
        start = _live_indexes()
        rng = random.Random(167)
        for _ in range(25):
            game = random_sink_game(rng)
            game_index(game)
            strategy = random_admissible_strategy(game, 0, rng)
            if strategy is not None:
                valuate(game, strategy)
        # the last game is still referenced, and so is its index
        assert _live_indexes() == start + 1
        del game, strategy
        gc.collect()
        assert _live_indexes() == start


def _seeded_games(rng, count):
    """Sink games with one admissible strategy per player: small random
    sink games with sampled strategies, and reductions of 8-24-node parity
    games with their trivial strategies."""
    out = []
    while len(out) < count:
        if rng.random() < 0.4:
            game = random_sink_game(rng, max_nodes=10)
            pair = admissible_pair(game, rng)
        else:
            game, rmap = reduce_game(random_parity_game(rng, min_nodes=8, max_nodes=24))
            pair = trivial_strategies(game, rmap)
        if pair is not None:
            out.append((game, pair))
    return out


def _codes_or_error(*args):
    try:
        return solve_values(*args)
    except NotAdmissibleError as exc:
        return str(exc)


def _gains(player, codes):
    """Codes in player 0's terms as ``player``'s engine codes, which are
    negated for player 1; the same map back, and an error message passes
    through."""
    if player == 0 or isinstance(codes, str):
        return codes
    return [-x for x in codes]


class TestIncrementalRevaluation:
    def test_cone_restart_matches_cold_start(self):
        # chains of random switch sets, improving or not, some of which
        # leave the strategy inadmissible; the restart must reproduce the
        # cold codes or its error exactly
        rng = random.Random(173)
        outcomes = {"same": 0, "error": 0, "cone_changed_outside_switches": 0}
        for game, pair in _seeded_games(rng, 60):
            gi = game_index(game)
            for strategy in pair:
                player = strategy.player
                first = gi.strategy_array(strategy)
                prev = solve_values(gi, first, player)
                movable = [v for v in gi.nodes[player] if len(gi.succ[v]) > 1]
                if not movable:
                    continue
                for _ in range(8):
                    switched = rng.sample(movable, rng.randint(1, min(3, len(movable))))
                    new_first = list(first)
                    for v in switched:
                        new_first[v] = rng.choice(gi.succ[v])
                    got = _codes_or_error(gi, new_first, player, prev, switched)
                    assert got == _codes_or_error(gi, new_first, player)
                    if isinstance(got, str):
                        outcomes["error"] += 1
                        continue
                    outcomes["same"] += 1
                    changed = {v for v in range(len(got)) if got[v] != prev[v]}
                    if changed - set(switched):
                        outcomes["cone_changed_outside_switches"] += 1
                    first, prev = new_first, got
        assert outcomes["same"] > 400
        assert outcomes["error"] > 75
        assert outcomes["cone_changed_outside_switches"] > 200

    def test_no_switch_keeps_every_code(self):
        inst = gen_table1(4)
        xi = valuate(inst.game, inst.sigma0)
        gi, cold = xi.gi, list(xi.codes)
        first = gi.strategy_array(inst.sigma0)
        assert solve_values(gi, first, 0, cold, ()) == cold

    def test_solver_runs_match_cold_valuations(self):
        # every pass of the loops revalues incrementally; the final
        # valuations must equal cold valuations of the final strategies
        rng = random.Random(179)
        for game, (sigma, tau) in _seeded_games(rng, 20):
            results = [run_si(game, sigma, switch_all_rule()), run_si(game, tau, switch_all_rule())]
            results += [run_ssi(game, sigma, tau, switch_all_rule())]
            results += [run_gssi(game, sigma, tau, switch_all_rule())]
            for result in results:
                for final, xi in ((result.sigma, result.xi_sigma), (result.tau, result.xi_tau)):
                    if final is not None:
                        assert xi.codes == valuate(game, final).codes


class TestCodecBase:
    @staticmethod
    def _valuations():
        """Games of both families and seeded sink games and reductions, each
        with the start and final valuations of both players."""
        rng = random.Random(181)
        cases = []
        for gen, sizes in ((gen_table1, (1, 4, 9)), (gen_table2, (1, 3, 5))):
            for n in sizes:
                inst = gen(n)
                cases.append((inst.game, (inst.sigma0, inst.tau0)))
        cases += _seeded_games(rng, 30)
        for game, (sigma, tau) in cases:
            result = run_ssi(game, sigma, tau, switch_all_rule())
            yield game, (valuate(game, sigma), valuate(game, tau), result.xi_sigma, result.xi_tau)

    def test_base_is_sized_to_the_node_count(self):
        # every final code, start and optimum alike, decodes to counts of
        # at most n under the base 2(n+2)+4
        for game, valuations in self._valuations():
            n = game.num_nodes
            gi = game_index(game)
            assert gi.codec.base == 2 * (n + 2) + 4
            for xi in valuations:
                sign = 1 if xi.player == 0 else -1
                for v, value in xi.values.items():
                    assert value.is_finite
                    assert all(0 < c <= n for _, c in value.counts)
                    assert gi.codec.encode(value) == sign * xi.codes[gi.index[v]]


def _reference(game):
    ids, owners, priorities, _, successors = game.columns()
    index = {v: i for i, v in enumerate(ids)}
    rows = [[index[w] for w in succs] for succs in successors]
    return ReferenceGame(ids, owners, priorities, rows, index[game.sink])


def _unpeeled(sub, nodes):
    """The nodes of ``nodes`` that lead to a cycle of the subgraph ``sub``
    restricted to them: peel nodes with no successor left inside until
    none can be peeled. Empty exactly when there is no cycle."""
    inside = set(nodes)
    changed = True
    while changed:
        changed = False
        for v in list(inside):
            if not any(w in inside for w in sub[v]):
                inside.discard(v)
                changed = True
    return inside


class TestReferenceEngine:
    """The successor-first engine against ``valuation_reference``, a frozen
    copy of the sink-BFS sweep that shares no code with ``sinkgames``: codes
    or error messages must be identical, and the DFS must find the cone,
    report back edges exactly when it has a cycle, and order acyclic cones
    successors first."""

    @staticmethod
    def _games(rng):
        """Small seeded sink games and reductions, plus reductions of
        seeded 30-100-node games of the benchmark's shape, each with an
        admissible strategy per player."""
        games = _seeded_games(rng, 120)
        for _ in range(16):
            game, rmap = reduce_game(random_parity_game(rng, 30, 100))
            games.append((game, trivial_strategies(game, rmap)))
        return games

    def test_cold_and_cone_restarts_match(self):
        rng = random.Random(191)
        seen = {"cold": 0, "cold error": 0, "acyclic": 0, "cyclic": 0, "error": 0}
        for game, pair in self._games(rng):
            gi = game_index(game)
            ref = _reference(game)
            for strategy in pair:
                player = strategy.player
                own = gi.nodes[player]
                # random strategies, mostly inadmissible, from a cold start
                for _ in range(4):
                    choice = gi.strategy_array(strategy)
                    for v in own:
                        choice[v] = rng.choice(gi.succ[v])
                    got = _codes_or_error(gi, choice, player)
                    assert got == _gains(player, ref.codes(player, choice))
                    seen["cold error" if isinstance(got, str) else "cold"] += 1
                # chains of switches from the admissible strategy
                choice = gi.strategy_array(strategy)
                prev = solve_values(gi, choice, player)
                assert prev == _gains(player, ref.codes(player, choice))
                movable = [v for v in own if len(gi.succ[v]) > 1]
                if not movable:
                    continue
                for _ in range(12):
                    switched = rng.sample(movable, rng.randint(1, min(3, len(movable))))
                    new_choice = list(choice)
                    for v in switched:
                        new_choice[v] = rng.choice(gi.succ[v])
                    got = _codes_or_error(gi, new_choice, player, prev, switched)
                    expected = ref.codes(player, new_choice, _gains(player, prev), switched)
                    assert got == _gains(player, expected)
                    sub = ref.subgraph(player, new_choice)
                    cone = ref.cone(sub, switched)
                    order, back = successors_first(gi, new_choice, player, switched, list(prev))
                    cyclic = bool(back)
                    assert set(order) == cone - {gi.sink}
                    assert set(back) <= _unpeeled(sub, order)
                    assert cyclic == bool(_unpeeled(sub, order))
                    if isinstance(got, str):
                        seen["error"] += 1
                        continue
                    seen["cyclic" if cyclic else "acyclic"] += 1
                    if not cyclic:
                        position = {v: i for i, v in enumerate(order)}
                        assert all(
                            position.get(w, -1) < i for i, v in enumerate(order) for w in sub[v]
                        )
                    choice, prev = new_choice, got
        assert seen["cold"] > 400
        assert seen["cold error"] > 400
        assert seen["acyclic"] > 1500
        assert seen["cyclic"] > 400
        assert seen["error"] > 400

    def test_index_form_spans_the_strategy_subgraph(self):
        # a node's first successor and its rest are its successors in the
        # strategy subgraph, each once, in declaration order
        for game, pair in _seeded_games(random.Random(199), 40):
            gi, ref = game_index(game), _reference(game)
            for strategy in pair:
                first = gi.strategy_array(strategy)
                rows = [tuple(dict.fromkeys(row)) for row in ref.subgraph(strategy.player, first)]
                assert [(w, *rest) for w, rest in zip(first, gi.rest[strategy.player])] == rows

    def test_bad_cycle_in_a_later_scc(self):
        # switching 1 to 2 and 3 to 4 leaves the cone {1} <- {3, 4}: the
        # first SCC is harmless, while 4 can keep the pebble on 3 -> 4 -> 3,
        # whose top priority 7 is odd
        game = ParityGame(
            [0, 1, 2, 3, 4],
            [0, 0, 1, 0, 1],
            [0, 2, 4, 6, 7],
            [None] * 5,
            [(0,), (0, 2), (0,), (1, 4), (3, 1)],
            sink=0,
        )
        xi = valuate(game, Strategy(0, {0: 0, 1: 0, 3: 1}))
        gi, prev = xi.gi, list(xi.codes)
        choice = [0, 2, 0, 4, 3]
        order, back = successors_first(gi, choice, 0, [1, 3], list(prev))
        assert order[0] == 1 and set(order) == {1, 3, 4} and set(back) <= {3, 4}
        expected = _reference(game).codes(0, choice, prev, [1, 3])
        assert expected == "valuation fixpoint did not stabilize"
        assert _codes_or_error(gi, choice, 0, prev, [1, 3]) == expected
        assert _codes_or_error(gi, choice, 0) == _reference(game).codes(0, choice)

    @pytest.mark.parametrize(
        "player, owners, priorities, choice",
        [
            (0, (0, 1, 0, 0, 1), (0, 1, 2, 8, 8), {0: 0, 2: 1, 3: 4}),
            (1, (0, 0, 1, 1, 0), (0, 2, 3, 9, 9), {2: 1, 3: 4}),
        ],
        ids=["player0", "player1"],
    )
    def test_sentinel_outlasts_an_exit_through_the_top_priority(
        self, player, owners, priorities, choice
    ):
        # the opponent at 1 must leave the cycle 1 <-> 2, which the valued
        # player wins, by the exit 3 -> 4 -> 0, which holds the top priority
        # twice. The cycle starts at the sentinel, so the opponent takes the
        # exit at once only when the sentinel lies beyond the exit's code;
        # from a sentinel within the margin the cycle climbs towards the
        # exit by its own small weight per lap and does not settle in |V|
        # sweeps
        game = ParityGame(
            [0, 1, 2, 3, 4], list(owners), list(priorities), [None] * 5,
            [(0,), (2, 3), (1,), (4,), (0,)], 0,
        )
        strategy = Strategy(player, choice)
        assert is_admissible(game, strategy)
        gi = game_index(game)
        expected = _reference(game).codes(player, gi.strategy_array(strategy))
        assert valuate(game, strategy).codes == tuple(_gains(player, expected))

    def test_nodes_that_cannot_reach_the_sink(self):
        # 2 -> 3 -> 2 tops at the even priority 6, which player 0 wins, but
        # it never reaches the sink: cold, and after switching 1 into it
        game = ParityGame(
            [0, 1, 2, 3],
            [0, 0, 0, 0],
            [0, 1, 6, 3],
            [None] * 4,
            [(0,), (0, 2), (0, 3), (2,)],
            sink=0,
        )
        ref = _reference(game)
        xi = valuate(game, Strategy(0, {0: 0, 1: 0, 2: 0, 3: 2}))
        gi, prev = xi.gi, list(xi.codes)
        for choice, switched in (([0, 2, 3, 2], [1, 2]), ([0, 0, 3, 2], [2])):
            for args in ((), (prev, switched)):
                expected = ref.codes(0, choice, *args)
                assert isinstance(expected, str)
                assert _codes_or_error(gi, choice, 0, *args) == expected

    def test_ids_with_gaps_valuate_like_their_relabelling(self):
        # every id goes through the index map, so gaps change nothing
        rng = random.Random(197)
        for _ in range(10):
            game, rmap = reduce_game(random_parity_game(rng, 10, 30))
            relabel = {v: 3 * v + 5 for v in game.node_ids}
            ids, owners, priorities, labels, successors = game.columns()
            gapped = ParityGame(
                [relabel[v] for v in ids], owners, priorities, labels,
                [[relabel[w] for w in succs] for succs in successors], relabel[game.sink],
            )
            for strategy in trivial_strategies(game, rmap):
                moved = Strategy(
                    strategy.player, {relabel[v]: relabel[w] for v, w in strategy.choice.items()}
                )
                assert valuate(gapped, moved).codes == valuate(game, strategy).codes
                gapped_dist = _distances_to_sink(game_index(gapped))
                assert gapped_dist == _distances_to_sink(game_index(game))

    def test_acyclic_cone_takes_one_pass(self, monkeypatch):
        # each solve_values call sweeps once; without a back edge its budget
        # is 2 sweeps, the first relaxes every node once and the confirming
        # sweep relaxes none
        game, rmap = reduce_game(random_parity_game(random.Random(193), 40, 40))
        sigma, tau = trivial_strategies(game, rmap)
        gi = game_index(game)
        ref = _reference(game)
        sweeps = []
        relaxed = []
        real = valuation_module.sweep_to_fixpoint

        class CountedWeight(list):
            def __getitem__(self, v):
                relaxed.append(v)
                return super().__getitem__(v)

        def counted(weight, order, *args):
            sweeps.append(args[-1])
            return real(CountedWeight(weight), order, *args)

        monkeypatch.setattr(valuation_module, "sweep_to_fixpoint", counted)
        for strategy in (sigma, tau):
            choice = gi.strategy_array(strategy)
            player = strategy.player
            sweeps.clear()
            relaxed.clear()
            cold = solve_values(gi, choice, player)
            assert cold == _gains(player, ref.codes(player, choice))
            # the trivial strategies exit at once: no cycle avoids the sink
            assert sweeps == [2]
            assert sorted(relaxed) == [v for v in range(len(gi.ids)) if v != gi.sink]
            v = next(v for v in gi.nodes[player] if len(gi.succ[v]) > 1)
            choice[v] = next(w for w in gi.succ[v] if w != choice[v])
            order, back = successors_first(gi, choice, player, [v], list(cold))
            assert not back
            sweeps.clear()
            relaxed.clear()
            got = _codes_or_error(gi, choice, player, cold, [v])
            assert got == _gains(player, ref.codes(player, choice, _gains(player, cold), [v]))
            assert sweeps == [2]
            assert sorted(relaxed) == sorted(order)

    def test_back_edge_budget_decides_like_the_node_budget(self, monkeypatch):
        # solve_values allows len(back) + 2 sweeps, at most max(|V|, 2):
        # seeded cold starts and cones, many of them inadmissible, must give
        # the same codes or the same error under the budget max(|V|, 2)
        real = valuation_module.sweep_to_fixpoint
        budgets = []

        def recorded(*args):
            budgets.append((args[-1], max(len(args[4]), 2)))
            return real(*args)

        def node_budget(*args):
            return real(*args[:-1], max(len(args[4]), 2))

        refused_sooner = 0

        def both(*args):
            nonlocal refused_sooner
            budgets.clear()
            monkeypatch.setattr(valuation_module, "sweep_to_fixpoint", recorded)
            got = _codes_or_error(*args)
            monkeypatch.setattr(valuation_module, "sweep_to_fixpoint", node_budget)
            assert _codes_or_error(*args) == got
            if budgets:
                new, old = budgets[0]
                refused_sooner += isinstance(got, str) and new < old
            return got

        rng = random.Random(227)
        for game, pair in _seeded_games(rng, 40):
            gi = game_index(game)
            for strategy in pair:
                player = strategy.player
                own = gi.nodes[player]
                for _ in range(3):
                    choice = gi.strategy_array(strategy)
                    for v in own:
                        choice[v] = rng.choice(gi.succ[v])
                    both(gi, choice, player)
                choice = gi.strategy_array(strategy)
                prev = solve_values(gi, choice, player)
                movable = [v for v in own if len(gi.succ[v]) > 1]
                for _ in range(6 if movable else 0):
                    switched = rng.sample(movable, rng.randint(1, min(3, len(movable))))
                    new_choice = list(choice)
                    for v in switched:
                        new_choice[v] = rng.choice(gi.succ[v])
                    got = both(gi, new_choice, player, prev, switched)
                    if not isinstance(got, str):
                        choice, prev = new_choice, got
        assert refused_sooner > 50


class TestChangeDrivenSweep:
    """The change-driven sweep against ``full_sweeps`` of
    ``valuation_reference``, a frozen copy of the full sweep loop it
    replaced: on the order, start values and seeds (the DFS's back edges)
    that ``solve_values`` gives each sweep, every budget k from 1 to |V|
    must give the same verdict and leave the same codes. ``moved`` counts
    the cones whose switched node closes a cycle."""

    def test_every_budget_matches_full_sweeps(self, monkeypatch):
        calls = []
        seen = dict.fromkeys(
            ("cold", "cone", "moved", "settled", "unsettled", "budget decides"), 0
        )
        real = valuation_module.sweep_to_fixpoint

        def recorded(weight, order, first, rest, values, pred, seeds, max_sweeps):
            calls.append((weight, list(order), first, rest, list(values), pred, list(seeds)))
            return real(weight, order, first, rest, values, pred, seeds, max_sweeps)

        def check(kind):
            for weight, order, first, rest, start, pred, seeds in calls:
                verdicts = []
                for k in range(1, max(len(start), 2) + 1):
                    got, expected = list(start), list(start)
                    verdict = sweep_to_fixpoint(weight, order, first, rest, got, pred, seeds, k)
                    assert verdict == full_sweeps(weight, order, first, rest, expected, k)
                    assert got == expected
                    verdicts.append(verdict)
                seen[kind] += 1
                seen["settled" if verdicts[-1] else "unsettled"] += 1
                if verdicts[-1] and not verdicts[0]:
                    seen["budget decides"] += 1
            calls.clear()

        monkeypatch.setattr(valuation_module, "sweep_to_fixpoint", recorded)
        rng = random.Random(211)
        for game, pair in _seeded_games(rng, 40):
            gi = game_index(game)
            for strategy in pair:
                player = strategy.player
                own = gi.nodes[player]
                for _ in range(3):
                    choice = gi.strategy_array(strategy)
                    for v in own:
                        choice[v] = rng.choice(gi.succ[v])
                    _codes_or_error(gi, choice, player)
                    check("cold")
                choice = gi.strategy_array(strategy)
                prev = solve_values(gi, choice, player)
                calls.clear()
                movable = [v for v in own if len(gi.succ[v]) > 1]
                for _ in range(6 if movable else 0):
                    switched = rng.sample(movable, rng.randint(1, min(3, len(movable))))
                    new_choice = list(choice)
                    for v in switched:
                        new_choice[v] = rng.choice(gi.succ[v])
                    got = _codes_or_error(gi, new_choice, player, prev, switched)
                    _, back = successors_first(gi, new_choice, player, switched, list(prev))
                    seen["moved"] += bool(set(switched).intersection(back))
                    check("cone")
                    if not isinstance(got, str):
                        choice, prev = new_choice, got
        assert seen["cold"] > 50
        assert seen["cone"] > 50
        assert seen["moved"] > 10
        assert seen["settled"] > 50
        assert seen["unsettled"] > 50
        assert seen["budget decides"] > 50


class TestGameIndexBuild:
    def test_node_without_successor_is_named(self):
        game = ParityGame(
            [0, 1, 2], [0, 0, 1], [0, 2, 3], [None] * 3, [(0,), (0, 2), ()], 0
        )
        with pytest.raises(ValueError, match="^node 2 has no successor$"):
            valuate(game, Strategy(0, {0: 0, 1: 0}))
        with pytest.raises(ValueError, match="^node 2 has no successor$"):
            game_index(game)

    def test_successor_that_is_not_a_node_is_named(self):
        game = ParityGame([0, 1], [0, 1], [0, 3], [None] * 2, [(0,), (0, 5)], sink=0)
        message = "^node 1 lists successor 5 which is not a node$"
        with pytest.raises(ValueError, match=message):
            valuate(game, Strategy(0, {0: 0}))
        with pytest.raises(ValueError, match=message):
            run_si(game, Strategy(0, {0: 0}), switch_all_rule())

    def test_nodes_of_one_priority_share_one_negated_weight(self):
        game, _ = reduce_game(random_parity_game(random.Random(223), 30, 40))
        gi = game_index(game)
        priorities = game.columns()[2]
        shared = {}
        for v, q in enumerate(priorities):
            assert gi.weight[1][v] == -gi.weight[0][v]
            assert gi.weight[1][v] is shared.setdefault(q, gi.weight[1][v])
        # outside -5..256 each negation makes a new int object, and many
        # nodes share such a weight
        big = [q for q in priorities if not -5 <= shared[q] <= 256]
        assert len(big) - len(set(big)) > 20
