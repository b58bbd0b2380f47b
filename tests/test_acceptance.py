"""Acceptance suite: one test per headline claim, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Zero-tolerance criteria assert exact equality; the two
reproduction criteria also carry wall-clock budgets.
"""

import random
import time

from conftest import admissible_pair, random_parity_game, random_sink_game
from oracle_reference import (
    EnumerationBudget,
    add_priority,
    brute_force_winners,
    compare,
    enumerate_optimal_strategy,
)
from sinkgames.families import gen_table1, gen_table2, optimal_table1

# the n=5..6 ladder games are wider than the default node cap, but their
# strategy-pair count stays far below the default pair budget
_WIDE_BUDGET = EnumerationBudget(max_nodes=14, max_strategies=2**20)
from sinkgames.playvalues import PlayValue
from sinkgames.reduction import solve_winners
from sinkgames.rules import make_rule, switch_all_rule
from sinkgames.solvers import run_gssi, run_si, run_ssi, verify_optimal
from sinkgames.valuation import improving_moves, j_set, valuate


def _passed(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_symmetric_iteration_counts():
    """Ladder family, symmetric improvement, switch-all: exactly 2^(n+1)-3
    switching iterations for n = 1..16, within 30 seconds total."""
    started = time.perf_counter()
    for n in range(1, 17):
        inst = gen_table1(n)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        expected = 2 ** (n + 1) - 3
        assert result.iterations == expected, (n, result.iterations, expected)
        if n == 16:
            assert result.iterations == 131_069
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"
    _passed(f"criterion 1: ladder ssi counts exact for n=1..16 in {elapsed:.1f}s")


def test_criterion_2_trace_structure():
    """For n = 3..8 and every level j = 2..n the trace has the consecutive
    triple (a_j,a_1), (d_j,a_{j+1}), (a_j,d_{j+1}) as sole switches, sitting
    at iterations 2^j-2, 2^j-1, 2^j."""
    for n in range(3, 9):
        inst = gen_table1(n)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        by_index = {r.index: r.switches for r in result.trace.iterations}
        for j in range(2, n + 1):
            a_j, d_j = inst.id_of(f"a{j}"), inst.id_of(f"d{j}")
            a_1 = inst.id_of("a1")
            a_next, d_next = inst.id_of(f"a{j + 1}"), inst.id_of(f"d{j + 1}")
            triple = (
                ((0, a_j, a_1),),
                ((1, d_j, a_next),),
                ((0, a_j, d_next),),
            )
            base = 2**j - 2
            actual = (by_index[base], by_index[base + 1], by_index[base + 2])
            assert actual == triple, (n, j, actual)
    _passed("criterion 2: per-level switch triples exact for n=3..8")


def test_criterion_3_generalized_iteration_counts():
    """Gadget family, generalized symmetric improvement, switch-all:
    exactly 7*2^(n-1)-5 switching iterations for n = 1..12, within 60s."""
    started = time.perf_counter()
    for n in range(1, 13):
        inst = gen_table2(n)
        result = run_gssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        expected = 7 * 2 ** (n - 1) - 5
        assert result.iterations == expected, (n, result.iterations, expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    _passed(f"criterion 3: gadget gssi counts exact for n=1..12 in {elapsed:.1f}s")


def test_criterion_4_rule_independence():
    """None of 21 sampled rules beats switch-all on either family: the
    lowest-edge rule and 20 seeded random rules all need at least as many
    iterations and still end at the verified-optimal pair, for n = 1..8.
    Not every rule does as well: a search over all rule choices finds
    ``gssi`` runs on ``table2`` shorter than the closed form (22 < 23 at
    n = 3, 48 < 51 at n = 4)."""
    rules = [make_rule("single")] + [make_rule("random", seed) for seed in range(20)]
    for family, runner, baseline in (
        (gen_table1, run_ssi, lambda n: 2 ** (n + 1) - 3),
        (gen_table2, run_gssi, lambda n: 7 * 2 ** (n - 1) - 5),
    ):
        for n in range(1, 9):
            inst = family(n)
            floor = baseline(n)
            for rule in rules:
                result = runner(inst.game, inst.sigma0, inst.tau0, rule)
                assert result.iterations >= floor, (
                    family.__name__, n, rule.name, rule.seed, result.iterations, floor,
                )
                assert verify_optimal(inst.game, result.sigma, result.tau).ok
    _passed("criterion 4: 21 rules never beat switch-all on either family, n=1..8")


def _iterates(game, sigma0, tau0, trace):
    """Strategy pairs after each switching iteration, including the start."""
    pairs = [(sigma0, tau0)]
    sigma, tau = sigma0, tau0
    for record in trace.iterations:
        if not record.switches:
            continue
        sigma_edges = [(v, w) for owner, v, w in record.switches if owner == 0]
        tau_edges = [(v, w) for owner, v, w in record.switches if owner == 1]
        if sigma_edges:
            sigma = sigma.rewired(sigma_edges)
        if tau_edges:
            tau = tau.rewired(tau_edges)
        pairs.append((sigma, tau))
    return pairs


def test_criterion_5_optimum_appears_only_last():
    """On both families neither player's optimal strategy shows up before
    the final iterate. The optimum is oracle-computed where enumeration is
    affordable and taken from the closed form / verified terminal pair
    beyond that."""
    for n in range(1, 11):
        inst = gen_table1(n)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        sigma_star, tau_star = optimal_table1(n)
        if n <= 6:
            oracle_sigma, _, unique_s = enumerate_optimal_strategy(inst.game, 0, _WIDE_BUDGET)
            oracle_tau, _, unique_t = enumerate_optimal_strategy(inst.game, 1, _WIDE_BUDGET)
            assert unique_s and unique_t
            assert oracle_sigma.choice == sigma_star.choice
            assert oracle_tau.choice == tau_star.choice
        pairs = _iterates(inst.game, inst.sigma0, inst.tau0, result.trace)
        assert pairs[-1][0].choice == sigma_star.choice
        assert pairs[-1][1].choice == tau_star.choice
        for sigma, tau in pairs[:-1]:
            assert sigma.choice != sigma_star.choice
            assert tau.choice != tau_star.choice

    for n in range(1, 9):
        inst = gen_table2(n)
        result = run_gssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        assert verify_optimal(inst.game, result.sigma, result.tau).ok
        sigma_star, tau_star = result.sigma, result.tau
        if n == 1:  # larger gadget instances exceed the enumeration budget
            oracle_sigma, _, _ = enumerate_optimal_strategy(inst.game, 0)
            oracle_tau, _, _ = enumerate_optimal_strategy(inst.game, 1)
            assert oracle_sigma.choice == sigma_star.choice
            assert oracle_tau.choice == tau_star.choice
        pairs = _iterates(inst.game, inst.sigma0, inst.tau0, result.trace)
        for sigma, tau in pairs[:-1]:
            assert sigma.choice != sigma_star.choice
            assert tau.choice != tau_star.choice
    _passed("criterion 5: optimal strategies first appear in the final iterate")


def test_criterion_6_oracle_equivalence():
    """All three solvers reach the oracle's optimal valuation on 500 random
    sink games from random admissible starts; zero mismatches."""
    rng = random.Random(2024)
    solved = 0
    while solved < 500:
        game = random_sink_game(rng)
        pair = admissible_pair(game, rng)
        if pair is None:
            continue
        sigma0, tau0 = pair
        _, best, _ = enumerate_optimal_strategy(game, 0)
        results = [
            run_si(game, sigma0, switch_all_rule()),
            run_ssi(game, sigma0, tau0, switch_all_rule()),
            run_gssi(game, sigma0, tau0, switch_all_rule()),
        ]
        for result in results:
            for xi in (result.xi_sigma, result.xi_tau):
                if xi is not None:
                    assert xi.values == best, (game, sigma0, tau0)
        solved += 1
    _passed("criterion 6: solver valuations equal the oracle optimum on 500 games")


def test_criterion_7_reduction_soundness():
    """The reduce-and-solve pipeline reproduces brute-force winning sets on
    500 random parity games exactly."""
    rng = random.Random(777)
    for _ in range(500):
        game = random_parity_game(rng, max_nodes=8)
        expected = brute_force_winners(game)
        result = solve_winners(game)
        assert (result.w0, result.w1) == expected, game
    _passed("criterion 7: pipeline winners match brute force on 500 games")


def test_criterion_8_property_suites():
    """Order laws and translation invariance on 10,000 random vector
    triples; strict improvement on 1,000 improvement steps; counterstrategy
    containment and symmetric-within-generalized candidates on 1,000 random
    strategy pairs."""
    rng = random.Random(4242)

    def random_value():
        if rng.random() < 0.05:
            return PlayValue(1) if rng.random() < 0.5 else PlayValue(-1)
        priorities = rng.sample(range(0, 13), rng.randint(0, 5))
        return PlayValue.finite({q: rng.randint(1, 7) for q in priorities})

    for _ in range(10_000):
        a, b, c = random_value(), random_value(), random_value()
        assert compare(a, b) == -compare(b, a)
        assert compare(a, a) == 0
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0
        if a.is_finite and b.is_finite:
            q = rng.randrange(0, 13)
            assert compare(a, b) == compare(add_priority(a, q), add_priority(b, q))

    steps = 0
    while steps < 1_000:
        game = random_sink_game(rng)
        player = rng.randint(0, 1)
        pair = admissible_pair(game, rng)
        if pair is None:
            continue
        strategy = pair[player]
        xi = valuate(game, strategy)
        moves = sorted(improving_moves(game, strategy, xi))
        if not moves:
            continue
        by_source: dict[int, list[int]] = {}
        for v, w in moves:
            by_source.setdefault(v, []).append(w)
        subset = [(v, rng.choice(ws)) for v, ws in by_source.items() if rng.random() < 0.6]
        if not subset:
            subset = [rng.choice(moves)]
        xi_new = valuate(game, strategy.rewired(subset))
        orders = [compare(xi_new.values[v], xi.values[v]) for v in game.node_ids]
        if player == 0:
            assert min(orders) >= 0 and max(orders) > 0
        else:
            assert max(orders) <= 0 and min(orders) < 0
        steps += 1

    pairs_checked = 0
    while pairs_checked < 1_000:
        game = random_sink_game(rng)
        pair = admissible_pair(game, rng)
        if pair is None:
            continue
        sigma, tau = pair
        xi_sigma, xi_tau = valuate(game, sigma), valuate(game, tau)
        sigma_bar, tau_bar = xi_sigma.counter, xi_tau.counter
        j_tau = j_set(game, tau, xi_sigma)
        j_sigma = j_set(game, sigma, xi_tau)
        assert all((v, w) in j_tau for v, w in sigma_bar.choice.items())
        assert all((v, w) in j_sigma for v, w in tau_bar.choice.items())
        i_sigma = improving_moves(game, sigma, xi_sigma)
        i_tau = improving_moves(game, tau, xi_tau)
        assert (i_sigma & set(tau_bar.choice.items())) <= (i_sigma & j_sigma)
        assert (i_tau & set(sigma_bar.choice.items())) <= (i_tau & j_tau)
        pairs_checked += 1
    _passed("criterion 8: order, improvement, and candidate-set properties hold")


def test_criterion_9_instance_shape():
    """The ladder family has exactly 2n+2 nodes and 6n edges for n = 1..32."""
    for n in range(1, 33):
        game = gen_table1(n).game
        assert game.num_nodes == 2 * n + 2, n
        assert game.num_edges == 6 * n, n
    _passed("criterion 9: ladder sizes are 2n+2 nodes / 6n edges for n=1..32")
