"""Solver loops, traces, optimality certification, cross-agreement."""

import hashlib
import random

import pytest

from conftest import admissible_pair, random_parity_game, random_sink_game
from sinkgames.families import gen_table1, gen_table2, generate, optimal_table1
from sinkgames.game import NodeRecord, ParityGame, Strategy
from sinkgames.oracle import enumerate_optimal_strategy
from sinkgames.reduction import reduce_game, trivial_strategies
from sinkgames.rules import make_rule, switch_all_rule
from sinkgames.solvers import (
    replay_trace,
    run_gssi,
    run_si,
    run_ssi,
    verify_optimal,
)
from sinkgames.valuation import improving_moves, valuate


class TestRunSi:
    def test_single_improvement_on_smallest_ladder(self):
        inst = gen_table1(1)
        result = run_si(inst.game, inst.sigma0, switch_all_rule())
        assert result.iterations == 1
        assert result.sigma.choice[inst.id_of("a1")] == inst.id_of("d2")
        xi = valuate(inst.game, result.sigma)
        assert improving_moves(inst.game, result.sigma, xi) == frozenset()

    def test_already_optimal_returns_input(self):
        inst = gen_table1(2)
        sigma, _ = optimal_table1(2)
        result = run_si(inst.game, sigma, switch_all_rule())
        assert result.iterations == 0
        assert result.sigma.choice == sigma.choice

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_reaches_closed_form_optimum(self, n):
        inst = gen_table1(n)
        sigma_star, tau_star = optimal_table1(n)
        result = run_si(inst.game, inst.sigma0, switch_all_rule())
        assert result.sigma.choice == sigma_star.choice
        result1 = run_si(inst.game, inst.tau0, switch_all_rule())
        assert result1.tau.choice == tau_star.choice

    def test_player1_side_runs(self):
        inst = gen_table1(3)
        result = run_si(inst.game, inst.tau0, switch_all_rule())
        assert result.sigma is None and result.tau is not None
        xi = valuate(inst.game, result.tau)
        assert improving_moves(inst.game, result.tau, xi) == frozenset()


class TestRunSsi:
    def test_smallest_ladder_single_joint_iteration(self):
        inst = gen_table1(1)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        assert result.iterations == 1
        a1, a2, d1, d2 = (inst.id_of(x) for x in ("a1", "a2", "d1", "d2"))
        assert set(result.trace.iterations[0].switches) == {(0, a1, d2), (1, d1, a2)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ladder_iteration_counts(self, n):
        inst = gen_table1(n)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        assert result.iterations == 2 ** (n + 1) - 3
        assert verify_optimal(inst.game, result.sigma, result.tau).ok

    def test_middle_phase_switches(self):
        n = 4
        inst = gen_table1(n)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        by_index = {r.index: r.switches for r in result.trace.iterations}
        for j in range(2, n + 1):
            aj, dj = inst.id_of(f"a{j}"), inst.id_of(f"d{j}")
            a1 = inst.id_of("a1")
            anext, dnext = inst.id_of(f"a{j + 1}"), inst.id_of(f"d{j + 1}")
            assert by_index[2**j - 2] == ((0, aj, a1),)
            assert by_index[2**j - 1] == ((1, dj, anext),)
            assert by_index[2**j] == ((0, aj, dnext),)


class TestRunGssi:
    def test_gadget_family_first_iterations(self):
        inst = gen_table2(1)
        result = run_gssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        assert result.iterations == 2
        first = {(o, inst.labels[u], inst.labels[w]) for o, u, w in result.trace.iterations[0].switches}
        second = {(o, inst.labels[u], inst.labels[w]) for o, u, w in result.trace.iterations[1].switches}
        assert first == {(0, "m1", "f1"), (1, "g1", "k1")}
        assert second == {(0, "c1", "m1"), (1, "h1", "g1")}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gadget_iteration_counts(self, n):
        inst = gen_table2(n)
        result = run_gssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        assert result.iterations == 7 * 2 ** (n - 1) - 5
        assert verify_optimal(inst.game, result.sigma, result.tau).ok

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_faster_than_symmetric_on_ladder(self, n):
        inst = gen_table1(n)
        result = run_gssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        assert result.iterations < 2 ** (n + 1) - 3
        assert verify_optimal(inst.game, result.sigma, result.tau).ok


class TestTrace:
    def test_final_record_is_empty_and_indexed_last(self):
        inst = gen_table1(2)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        records = result.trace.iterations
        assert records[-1].switches == ()
        assert records[-1].candidates == 0
        assert [r.index for r in records] == list(range(1, len(records) + 1))
        assert sum(1 for r in records if r.switches) == result.iterations

    def test_replay_reproduces_final_strategies(self):
        rng = random.Random(71)
        replayed_runs = 0
        while replayed_runs < 15:
            game = random_sink_game(rng)
            pair = admissible_pair(game, rng)
            if pair is None:
                continue
            sigma0, tau0 = pair
            for runner in (run_ssi, run_gssi):
                result = runner(game, sigma0, tau0, switch_all_rule())
                sigma, tau = replay_trace(game, sigma0, tau0, result.trace)
                assert sigma.choice == result.sigma.choice
                assert tau.choice == result.tau.choice
            replayed_runs += 1

    def test_switch_recorded_only_from_candidates(self):
        inst = gen_table1(3)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        for record in result.trace.iterations:
            assert len(record.switches) <= record.candidates


def _gapped_reduced_game(seed: int):
    """The reduction of a seeded random parity game whose ids are 2, 5, 8, ...,
    with its trivial start strategies."""
    source = random_parity_game(random.Random(seed), min_nodes=14, max_nodes=20)
    gap = lambda v: 3 * v + 2
    nodes = [NodeRecord(gap(v), source.owner(v), source.priority(v), None) for v in source.node_ids]
    edges = {gap(v): tuple(gap(w) for w in source.successors(v)) for v in source.node_ids}
    reduced, rmap = reduce_game(ParityGame(nodes, edges))
    return (reduced, *trivial_strategies(reduced, rmap))


def _stream_run(name: str):
    """Run ``<algo>-<family or 'reduced'>-<n or seed>-<rule>``, where algo
    ``si0``/``si1`` improves from player 0's/1's start and rule ``random7``
    is the random rule with seed 7."""
    algo, source, size, rule_name = name.split("-")
    if source == "reduced":
        game, sigma0, tau0 = _gapped_reduced_game(int(size))
    else:
        inst = generate(source, int(size))
        game, sigma0, tau0 = inst.game, inst.sigma0, inst.tau0
    if rule_name.startswith("random"):
        rule = make_rule("random", int(rule_name[len("random"):]))
    else:
        rule = make_rule(rule_name)
    if algo in ("si0", "si1"):
        return run_si(game, sigma0 if algo == "si0" else tau0, rule)
    runner = run_ssi if algo == "ssi" else run_gssi
    return runner(game, sigma0, tau0, rule)


# SHA-256 of the repr of each run's IterationRecord field tuples, recorded
# before the loop kept its per-player state in player-indexed lists
RECORD_DIGESTS = {
    "gssi-reduced-2-all": "1151f3b755f15b5dcbe3c5c0c0969e702ceab13b57926d5dc537c4d29ad4e798",
    "gssi-reduced-3-all": "15e94d5eac9b46690b59219a8f709238566beeff86f3e289f36ad5321feca28c",
    "gssi-reduced-6-all": "9b19fee1e19a4bd3fc8fceb40318042911679a54922f241079fe92405e11272c",
    "gssi-table2-5-all": "8b302f7b490ea68138b5a5056760c521db7f3964c2130bc1b78f7da3018ea139",
    "gssi-table2-5-random7": "df2d7958c84913d620e91eb2913fc73f70c9b2e1388e45a3925f73a685f1d5d3",
    "gssi-table2-5-single": "972122d772b634b23b2830925e8e45f171f51aecbe2ec2ae38cbd439919f8bb6",
    "si0-reduced-2-all": "203775d7f0f41517dcde2df59f1d16e7d3c9d0cd7d05c4fb8a28c6680d7819b5",
    "si0-reduced-3-all": "e1b3041282f34035d936cde1c8bff7d6b1a6e46b51b2b9ef89e39ef059d85a42",
    "si0-reduced-6-all": "4ec27a9970ea4b25e468d9bf098239925d29a707ea4e8f874d8cfa994995b62d",
    "si0-table1-5-all": "5680bc74732fff7e528c7bed7d31eb5ffdbef52f7d01375d5faabcd2ca6808d2",
    "si0-table2-5-all": "282d83ceb826db6a534783cde8c185a8636f1cad92977c7f34b146782a9c69da",
    "si1-reduced-2-all": "c3924134ca0a23dd1dc005061b1154802efb06ca6e5c5ae06ecd5fe099c2bdeb",
    "si1-reduced-3-all": "199c2eb1d71a64c0ec85e2189ce167091521875faf12c48a91817b267eedc325",
    "si1-reduced-6-all": "0d14d89a738342685b0585ba062168412540b808dea5c3606fee460cfafd828d",
    "si1-table1-5-all": "46529bf7c0a1d9efd2aaaea68bcb08671f8349decd4164b521b0d5338072a9eb",
    "si1-table2-5-all": "4e4b4cb3921322a56ae50c136462f79213ca8a7363954321eba0d8b685424852",
    "ssi-reduced-2-all": "17e3fef6a99993d6e65f8b73eb43a79ff3d28f35666a9bc63a36fdca231faf9d",
    "ssi-reduced-3-all": "e7b6bad5167f5d005cfd98931bdb2d2085cfff777c2b026f105852759ea9448d",
    "ssi-reduced-6-all": "d0f343b54e25966996242a97063646e7be3ffedba30aec389bff048de09c5549",
    "ssi-table1-6-all": "ae9059a8b84e1ecaa6a481f80b79fe109ec7197068e1e104169279878d963739",
    "ssi-table2-4-random7": "fb6636a8ea7bec5bd674e0ecded31970652bf88d1cb48643f995665ed56e5aed",
}


class TestRecordStream:
    @pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
    def test_records_match_recorded_digest(self, name):
        rows = [
            (r.index, r.switches, r.improving_sigma, r.improving_tau, r.candidates)
            for r in _stream_run(name).trace.iterations
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == RECORD_DIGESTS[name]


class TestVerifyOptimal:
    def test_accepts_solver_output(self):
        inst = gen_table1(3)
        result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        assert verify_optimal(inst.game, result.sigma, result.tau).ok

    def test_rejects_start_pair_with_witness(self):
        inst = gen_table1(1)
        certificate = verify_optimal(inst.game, inst.sigma0, inst.tau0)
        assert not certificate.ok
        assert (inst.id_of("a1"), inst.id_of("d2")) in certificate.improving_sigma

    def test_single_node_game_trivially_optimal(self):
        game = ParityGame([NodeRecord(0, 0, 0, None)], {0: (0,)}, sink=0)
        certificate = verify_optimal(game, Strategy(0, {0: 0}), Strategy(1, {}))
        assert certificate.ok


class TestCrossAlgorithmAgreement:
    def test_all_solvers_match_oracle_optimum(self):
        rng = random.Random(73)
        checked = 0
        while checked < 12:
            game = random_sink_game(rng)
            pair = admissible_pair(game, rng)
            if pair is None:
                continue
            sigma0, tau0 = pair
            _, best_values, _ = enumerate_optimal_strategy(game, 0)
            si_result = run_si(game, sigma0, switch_all_rule())
            ssi_result = run_ssi(game, sigma0, tau0, switch_all_rule())
            gssi_result = run_gssi(game, sigma0, tau0, switch_all_rule())
            assert si_result.xi_sigma.values == best_values
            assert ssi_result.xi_sigma.values == best_values
            assert gssi_result.xi_sigma.values == best_values
            assert gssi_result.xi_tau.values == best_values
            checked += 1

    def test_rules_reach_the_same_optimum(self):
        inst = gen_table1(3)
        baseline = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
        for rule in (make_rule("single"), make_rule("random", 5)):
            result = run_ssi(inst.game, inst.sigma0, inst.tau0, rule)
            assert result.xi_sigma.values == baseline.xi_sigma.values
            assert result.iterations >= baseline.iterations
