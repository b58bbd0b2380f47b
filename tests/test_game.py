"""Game model, validation, strategy subgraphs, admissibility."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_admissible_scc, random_sink_game, random_strategy, strategy_subgraph
from sinkgames.families import gen_table1, gen_table2
from sinkgames.game import ParityGame, Strategy, infer_sink, validate_game
from sinkgames.reduction import reduce_game
from sinkgames.valuation import is_admissible


class TestValidateGame:
    def test_generated_ladder_is_clean(self):
        assert validate_game(gen_table1(1).game, require_sink=True) == []

    def test_node_without_successor(self):
        game = ParityGame([0], [0], [2], [None], [()])
        report = validate_game(game)
        assert [v.rule for v in report] == ["node-successor"]
        assert "node without successor" in report[0].message

    def test_sink_with_second_edge(self):
        game = ParityGame([0, 1], [0, 1], [1, 5], [None] * 2, [(0, 1), (0,)], sink=0)
        report = validate_game(game)
        assert any(v.rule == "sink-self-loop" for v in report)

    def test_sink_priority_not_minimal(self):
        game = ParityGame([0, 1], [0, 1], [4, 3], [None] * 2, [(0,), (0,)], sink=0)
        assert any(v.rule == "sink-priority" for v in validate_game(game))

    def test_missing_sink_only_flagged_when_required(self):
        game = ParityGame([0], [0], [2], [None], [(0,)])
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
            ParityGame([0, 0], [0, 1], [1, 2], [None] * 2, [(0,), (0,)])
        with pytest.raises(ValueError):
            ParityGame([0], [2], [1], [None], [(0,)])


def _reference_error(ids, owners, sink) -> str | None:
    """The constructor's checks written out one node at a time, in the order
    they have always run: each node's id, duplicate and owner, then the
    sink."""
    seen = set()
    for v, who in zip(ids, owners):
        if v < 0:
            return f"node id {v} is negative"
        if v in seen:
            return f"duplicate node id {v}"
        if type(who) is not int or who not in (0, 1):
            return f"node {v} has invalid owner {who!r}"
        seen.add(v)
    if sink is not None and sink not in seen:
        return f"sink {sink} is not a node"
    return None


def _outcome(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


_OWNERS = st.sampled_from((0, 1) * 8 + (2, True, False, 1.0))
_PRIORITIES = st.integers(-2, 9)
_LABELS = st.one_of(st.none(), st.text("ab;", max_size=2))


@st.composite
def game_columns(draw):
    """Columns with unsorted ids, gaps, labels and, now and then, duplicate
    or negative ids, an owner of 2, a bool or a float, or a sink that is not
    a node."""
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=8))
    if ids and draw(st.integers(0, 7)) == 0:
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
    if draw(st.integers(0, 7)) == 0:
        ids.insert(draw(st.integers(0, len(ids))), draw(st.integers(-3, -1)))
    owners = [draw(_OWNERS) for _ in ids]
    priorities = [draw(_PRIORITIES) for _ in ids]
    labels = [draw(_LABELS) for _ in ids]
    targets = st.sampled_from(ids) if ids else st.integers(0, 3)
    successors = [draw(st.lists(targets, max_size=3)) for _ in ids]
    sink = draw(st.one_of(st.none(), st.sampled_from(ids) if ids else st.none(), st.integers(0, 32)))
    return [ids, owners, priorities, labels, successors], sink


class TestFromColumns:
    @settings(max_examples=400, deadline=None)
    @given(game_columns())
    def test_matches_constructor(self, case):
        columns, sink = case
        built = _outcome(lambda: ParityGame(*columns, sink=sink))
        error = _reference_error(columns[0], columns[1], sink)
        if error is not None:
            assert built == error
            return
        order = sorted(range(len(columns[0])), key=columns[0].__getitem__)
        ids, owners, priorities, labels, successors = ([column[i] for i in order] for column in columns)
        expected = (ids, owners, priorities, labels, [tuple(row) for row in successors])
        assert built.columns() == expected
        reversed_ids = ParityGame(*(column[::-1] for column in columns), sink=sink)
        # the game keeps a copy of its columns
        for row in columns[4]:
            row.append(-1)
        for column in columns:
            column.reverse()
            column.append(-1)
        assert built.columns() == expected and reversed_ids == built

    @pytest.mark.parametrize("owner", [True, False, 1.0])
    def test_owner_must_be_the_int_0_or_1(self, owner):
        columns = ([0, 1, 2], [0, owner, 2], [2] * 3, [None] * 3, [(0,)] * 3)
        message = f"node 1 has invalid owner {owner!r}"
        assert _outcome(lambda: ParityGame(*columns, sink=0)) == message

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="columns differ in length"):
            ParityGame([0, 1], [0, 1], [1, 2], [None], [(0,), (0,)])

    def test_columns_round_trip(self):
        game = gen_table2(2).game
        assert ParityGame(*game.columns(), sink=game.sink) == game
        assert game.columns()[0] == list(game.node_ids)

    @staticmethod
    def _gapped_game() -> ParityGame:
        # unsorted ids with gaps, so that a node's id is not its position
        return ParityGame([9, 1, 4], [1, 0, 1], [5, 3, 2], ["nine", None, ""], [[1, 9], (4,), [9]])

    def test_accessors_read_the_columns(self):
        game = self._gapped_game()
        ids, owners, priorities, labels, successors = game.columns()
        assert ids == [1, 4, 9] and list(game.node_ids) == ids
        for v, owner, priority, label, row in zip(ids, owners, priorities, labels, successors):
            assert (game.owner(v), game.priority(v), game.label(v), game.successors(v)) == (
                owner, priority, label, row
            )
        assert game.nodes_of(1) == (4, 9) and game.num_edges == 4

    def test_mutating_the_returned_columns_leaves_the_game_unchanged(self):
        game = self._gapped_game()
        expected = game.columns()
        columns = game.columns()
        for column in columns:
            column.reverse()
            column.append(0)
        columns[3][0] = "changed"
        assert game.columns() == expected
        assert game.node_ids == (1, 4, 9)
        assert (game.owner(9), game.label(9), game.successors(9)) == (1, "nine", (1, 9))

    @pytest.mark.parametrize("v", [0, 2, 3, 10, -1, -3], ids=lambda v: f"id{v}")
    def test_accessors_raise_key_error_for_a_non_node(self, v):
        # 0, 2 and -1 to -3 are valid positions in the columns, but no node ids
        game = self._gapped_game()
        assert v not in game
        for accessor in (game.owner, game.priority, game.label, game.successors):
            with pytest.raises(KeyError):
                accessor(v)


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
        game = ParityGame([0, 1], [1, 1], [1, 4], [None] * 2, [(0,), (0, 1)], sink=0)
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
        game = ParityGame([0, 1], [0, 0], [1, 3], [None] * 2, [(0,), (0, 1)], sink=0)
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
        game = ParityGame([0, 1], [0, 1], [1, 1], [None] * 2, [(0,), (0,)])
        assert infer_sink(game) is None

    def test_none_without_self_loop(self):
        game = ParityGame([0, 1], [0, 1], [1, 4], [None] * 2, [(1,), (0,)])
        assert infer_sink(game) is None
