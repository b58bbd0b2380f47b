"""Structure of the generated worst-case families."""

import hashlib

import pytest

from oracle_reference import compare, enumerate_optimal_strategy
from sinkgames.families import expected_iterations, gen_table1, gen_table2, optimal_table1
from sinkgames.game import validate_game
from sinkgames.pgsolver import write_pgsolver
from sinkgames.traces import write_strategy_text
from sinkgames.valuation import is_admissible, valuate


class TestLadderFamily:
    def test_smallest_instance_structure(self):
        inst = gen_table1(1)
        game = inst.game
        a1, a2, d1, d2 = (inst.id_of(x) for x in ("a1", "a2", "d1", "d2"))
        assert (game.owner(a1), game.priority(a1)) == (0, 3)
        assert (game.owner(d1), game.priority(d1)) == (1, 4)
        assert (game.owner(a2), game.priority(a2)) == (0, 1)
        assert (game.owner(d2), game.priority(d2)) == (1, 6)
        assert game.successors(a1) == (a2, d2)
        assert game.successors(d1) == (a2, d2)
        assert game.successors(a2) == (a2,)
        assert game.successors(d2) == (a2,)
        assert game.sink == a2

    def test_priorities_at_n3(self):
        inst = gen_table1(3)
        assert inst.game.priority(inst.id_of("a2")) == 5
        assert inst.game.priority(inst.id_of("d2")) == 6
        assert inst.game.priority(inst.id_of("d4")) == 10

    @pytest.mark.parametrize("n", range(1, 33))
    def test_node_and_edge_counts(self, n):
        game = gen_table1(n).game
        assert game.num_nodes == 2 * n + 2
        assert game.num_edges == 6 * n

    def test_interior_successors(self):
        inst = gen_table1(4)
        a3 = inst.id_of("a3")
        assert inst.game.successors(a3) == (
            inst.id_of("a1"),
            inst.id_of("a4"),
            inst.id_of("d4"),
        )
        d3 = inst.id_of("d3")
        assert inst.game.successors(d3) == (
            inst.id_of("d1"),
            inst.id_of("a4"),
            inst.id_of("d4"),
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_valid_sink_game_with_admissible_starts(self, n):
        inst = gen_table1(n)
        assert validate_game(inst.game, require_sink=True) == []
        assert is_admissible(inst.game, inst.sigma0)
        assert is_admissible(inst.game, inst.tau0)

    def test_start_strategies(self):
        inst = gen_table1(3)
        assert inst.sigma0.choice == {
            inst.id_of("a1"): inst.id_of("a2"),
            inst.id_of("a2"): inst.id_of("a3"),
            inst.id_of("a3"): inst.id_of("a4"),
            inst.id_of("a4"): inst.id_of("a4"),
        }
        assert inst.tau0.choice == {
            inst.id_of("d1"): inst.id_of("d2"),
            inst.id_of("d2"): inst.id_of("d3"),
            inst.id_of("d3"): inst.id_of("d4"),
            inst.id_of("d4"): inst.id_of("a4"),
        }

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            gen_table1(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_optimum_matches_oracle(self, n):
        inst = gen_table1(n)
        sigma_star, tau_star = optimal_table1(n)
        oracle_sigma, _, unique_sigma = enumerate_optimal_strategy(inst.game, 0)
        oracle_tau, _, unique_tau = enumerate_optimal_strategy(inst.game, 1)
        assert sigma_star.choice == oracle_sigma.choice and unique_sigma
        assert tau_star.choice == oracle_tau.choice and unique_tau

    def test_labels_cover_every_node_once(self):
        inst = gen_table1(5)
        labels = [inst.game.label(v) for v in inst.game.node_ids]
        assert None not in labels
        assert len(set(labels)) == inst.game.num_nodes


class TestGadgetFamily:
    def test_smallest_instance_priorities(self):
        inst = gen_table2(1)
        priorities = {inst.game.label(v): inst.game.priority(v) for v in inst.game.node_ids}
        assert priorities == {
            "a1": 33, "d1": 34, "a2": 1, "d2": 36,
            "c1": 15, "m1": 17, "e1": 18, "f1": 20,
            "g1": 22, "h1": 24, "k1": 25, "l1": 27,
        }

    def test_first_level_has_no_back_edges(self):
        inst = gen_table2(1)
        c1, m1 = inst.id_of("c1"), inst.id_of("m1")
        assert inst.game.successors(c1) == (inst.id_of("e1"), inst.id_of("m1"))
        assert inst.game.successors(m1) == (inst.id_of("f1"), inst.id_of("c1"))

    def test_upper_levels_gain_back_edges(self):
        inst = gen_table2(2)
        a1, d1 = inst.id_of("a1"), inst.id_of("d1")
        assert inst.game.successors(inst.id_of("c2"))[-1] == a1
        assert inst.game.successors(inst.id_of("m2"))[-1] == a1
        assert inst.game.successors(inst.id_of("g2"))[-1] == d1
        assert inst.game.successors(inst.id_of("h2"))[-1] == d1
        assert a1 not in inst.game.successors(inst.id_of("c1"))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_priority_split_around_threshold(self, n):
        inst = gen_table2(n)
        threshold = 16 * n + 16
        for v in inst.game.node_ids:
            label = inst.game.label(v)
            priority = inst.game.priority(v)
            if label.startswith(("a", "d")) and v != inst.game.sink:
                assert priority > threshold
            else:
                assert priority < threshold

    def test_ladder_node_wiring(self):
        inst = gen_table2(2)
        assert inst.game.successors(inst.id_of("a1")) == (inst.id_of("c1"),)
        assert inst.game.successors(inst.id_of("d2")) == (inst.id_of("h2"),)
        assert inst.game.successors(inst.id_of("e1")) == (
            inst.id_of("m1"), inst.id_of("a2"),
        )
        assert inst.game.successors(inst.id_of("f2")) == (
            inst.id_of("c2"), inst.id_of("d3"),
        )
        assert inst.game.successors(inst.id_of("k1")) == (
            inst.id_of("h1"), inst.id_of("a2"),
        )
        assert inst.game.successors(inst.id_of("l2")) == (
            inst.id_of("g2"), inst.id_of("d3"),
        )

    def test_start_strategies(self):
        inst = gen_table2(2)
        for i in (1, 2):
            assert inst.sigma0.choice[inst.id_of(f"c{i}")] == inst.id_of(f"e{i}")
            assert inst.sigma0.choice[inst.id_of(f"m{i}")] == inst.id_of(f"c{i}")
            assert inst.sigma0.choice[inst.id_of(f"k{i}")] == inst.id_of(f"a{i + 1}")
            assert inst.sigma0.choice[inst.id_of(f"l{i}")] == inst.id_of(f"d{i + 1}")
            assert inst.tau0.choice[inst.id_of(f"g{i}")] == inst.id_of(f"h{i}")
            assert inst.tau0.choice[inst.id_of(f"h{i}")] == inst.id_of(f"l{i}")
            assert inst.tau0.choice[inst.id_of(f"e{i}")] == inst.id_of(f"a{i + 1}")
            assert inst.tau0.choice[inst.id_of(f"f{i}")] == inst.id_of(f"d{i + 1}")

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_valid_sink_game_with_admissible_starts(self, n):
        inst = gen_table2(n)
        assert validate_game(inst.game, require_sink=True) == []
        assert is_admissible(inst.game, inst.sigma0)
        assert is_admissible(inst.game, inst.tau0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            gen_table2(0)


class TestGeneratorDigest:
    def test_outputs_are_byte_identical(self):
        # recorded from the generators that spelled out every node id; covers
        # each game's PGSolver text and sink, both start strategies and the
        # ladder's optimal pair for n = 1..10
        h = hashlib.sha256()
        for n in range(1, 11):
            for inst in (gen_table1(n), gen_table2(n)):
                h.update(write_pgsolver(inst.game).encode())
                h.update(f"sink {inst.game.sink}\n".encode())
                h.update((write_strategy_text(inst.sigma0) + write_strategy_text(inst.tau0)).encode())
            h.update("".join(map(write_strategy_text, optimal_table1(n))).encode())
        assert h.hexdigest() == "ccec3c5bb3824c01e9196578b836ed7cb3cb7b74f4cc20f6f6219e5667253e09"


class TestExpectedIterations:
    def test_known_closed_forms(self):
        assert [expected_iterations("table1", "ssi", n) for n in range(1, 6)] == [1, 5, 13, 29, 61]
        assert [expected_iterations("table2", "gssi", n) for n in range(1, 5)] == [2, 9, 23, 51]

    def test_unknown_combinations(self):
        assert expected_iterations("table1", "gssi", 3) is None
        assert expected_iterations("table2", "ssi", 3) is None


class TestLadderValuationShape:
    def test_passing_highest_even_priority_dominates(self):
        # the strategy that routes through the top even priority beats the
        # start strategy at every ladder node
        inst = gen_table1(2)
        sigma_star, _ = optimal_table1(2)
        xi_start = valuate(inst.game, inst.sigma0)
        xi_star = valuate(inst.game, sigma_star)
        top = 2 * 2 + 4
        a1 = inst.id_of("a1")
        assert xi_star.values[a1].count(top) == 1
        assert compare(xi_star.values[a1], xi_start.values[a1]) > 0
