"""Game model, validation, strategy subgraphs, admissibility."""

import random

import pytest

from conftest import is_admissible_scc, random_sink_game, random_strategy
from sinkgames.families import gen_table1, gen_table2
from sinkgames.game import (
    NodeRecord,
    ParityGame,
    Strategy,
    infer_sink,
    strategy_subgraph,
    validate_game,
)
from sinkgames.reduction import reduce_game
from sinkgames.valuation import is_admissible


class TestValidateGame:
    def test_generated_ladder_is_clean(self):
        assert validate_game(gen_table1(1).game, require_sink=True) == []

    def test_node_without_successor(self):
        game = ParityGame([NodeRecord(0, 0, 2, None)], {0: ()})
        report = validate_game(game)
        assert [v.rule for v in report] == ["node-successor"]
        assert "node without successor" in report[0].message

    def test_sink_with_second_edge(self):
        game = ParityGame(
            [NodeRecord(0, 0, 1, None), NodeRecord(1, 1, 5, None)],
            {0: (0, 1), 1: (0,)},
            sink=0,
        )
        report = validate_game(game)
        assert any(v.rule == "sink-self-loop" for v in report)

    def test_sink_priority_not_minimal(self):
        game = ParityGame(
            [NodeRecord(0, 0, 4, None), NodeRecord(1, 1, 3, None)],
            {0: (0,), 1: (0,)},
            sink=0,
        )
        assert any(v.rule == "sink-priority" for v in validate_game(game))

    def test_missing_sink_only_flagged_when_required(self):
        game = ParityGame([NodeRecord(0, 0, 2, None)], {0: (0,)})
        assert validate_game(game) == []
        assert any(v.rule == "sink-missing" for v in validate_game(game, require_sink=True))

    def test_accepts_generator_and_reduction_outputs(self):
        rng = random.Random(3)
        for n in (1, 2, 4):
            assert validate_game(gen_table1(n).game, require_sink=True) == []
            assert validate_game(gen_table2(n).game, require_sink=True) == []
        for _ in range(20):
            from conftest import random_parity_game

            reduced, _ = reduce_game(random_parity_game(rng))
            assert validate_game(reduced, require_sink=True) == []

    def test_constructor_rejects_structural_garbage(self):
        with pytest.raises(ValueError):
            ParityGame([NodeRecord(0, 0, 1, None), NodeRecord(0, 1, 2, None)], {0: (0,)})
        with pytest.raises(ValueError):
            ParityGame([NodeRecord(0, 2, 1, None)], {0: (0,)})
        with pytest.raises(ValueError):
            ParityGame([NodeRecord(0, 0, 1, None)], {5: (0,)})


class TestStrategySubgraph:
    def test_ladder_restriction(self):
        inst = gen_table1(1)
        sub = strategy_subgraph(inst.game, inst.sigma0)
        a1, a2, d1, d2 = (inst.id_of(x) for x in ("a1", "a2", "d1", "d2"))
        assert sub.successors(a1) == (a2,)
        assert sub.successors(d1) == (a2, d2)

    def test_everything_keeps_an_edge(self):
        rng = random.Random(5)
        for _ in range(30):
            game = random_sink_game(rng)
            for player in (0, 1):
                strategy = random_strategy(game, player, rng)
                sub = strategy_subgraph(game, strategy)
                assert all(len(sub.successors(v)) >= 1 for v in game.node_ids)

    def test_player_without_nodes_changes_nothing(self):
        game = ParityGame(
            [NodeRecord(0, 1, 1, None), NodeRecord(1, 1, 4, None)],
            {0: (0,), 1: (0, 1)},
            sink=0,
        )
        sub = strategy_subgraph(game, Strategy(0, {}))
        assert all(sub.successors(v) == game.successors(v) for v in game.node_ids)

    def test_rejects_non_edge_choice(self):
        inst = gen_table1(1)
        bad = Strategy(0, dict(inst.sigma0.choice))
        bad.choice[inst.id_of("a1")] = inst.id_of("a1")
        with pytest.raises(ValueError):
            strategy_subgraph(inst.game, bad)

    def test_deterministic_for_equal_strategies(self):
        inst = gen_table1(2)
        again = Strategy(0, dict(inst.sigma0.choice))
        sub1 = strategy_subgraph(inst.game, inst.sigma0)
        sub2 = strategy_subgraph(inst.game, again)
        assert all(
            sub1.successors(v) == sub2.successors(v) for v in inst.game.node_ids
        )


class TestIsAdmissible:
    def test_ladder_start_strategies(self):
        inst = gen_table1(1)
        assert is_admissible(inst.game, inst.sigma0)
        assert is_admissible(inst.game, inst.tau0)

    def test_odd_self_loop_is_inadmissible_for_player0(self):
        game = ParityGame(
            [NodeRecord(0, 0, 1, None), NodeRecord(1, 0, 3, None)],
            {0: (0,), 1: (0, 1)},
            sink=0,
        )
        assert not is_admissible(game, Strategy(0, {0: 0, 1: 1}))
        assert is_admissible(game, Strategy(0, {0: 0, 1: 0}))

    def test_agrees_with_cycle_enumeration(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(120):
            game = random_sink_game(rng)
            for player in (0, 1):
                strategy = random_strategy(game, player, rng)
                assert is_admissible(game, strategy) == is_admissible_scc(game, strategy)
                checked += 1
        assert checked == 240


class TestInferSink:
    def test_ladder(self):
        inst = gen_table1(3)
        assert infer_sink(inst.game) == inst.id_of("a4")

    def test_none_when_lowest_priority_is_shared(self):
        game = ParityGame(
            [NodeRecord(0, 0, 1, None), NodeRecord(1, 1, 1, None)],
            {0: (0,), 1: (0,)},
        )
        assert infer_sink(game) is None

    def test_none_without_self_loop(self):
        game = ParityGame(
            [NodeRecord(0, 0, 1, None), NodeRecord(1, 1, 4, None)],
            {0: (1,), 1: (0,)},
        )
        assert infer_sink(game) is None
