"""PGSolver format parsing and writing."""

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import pgsolver_reference as reference
from conftest import random_parity_game
from sinkgames.families import gen_table1, gen_table2
from sinkgames.game import ParityGame, validate_game
from sinkgames.pgsolver import (
    MAX_DIGITS,
    ParseError,
    parse_pgsolver,
    pgsolver_lines,
    write_pgsolver,
)
from sinkgames.reduction import reduce_game
from sinkgames.traces import parse_strategy_text

HAND_ENCODED = 'parity 3; 0 3 0 1,3; 1 4 1 1,3 "d1"; 2 1 0 2; 3 6 1 2;'


class TestParse:
    def test_hand_encoded_instance(self):
        game = parse_pgsolver(HAND_ENCODED)
        assert game.num_nodes == 4
        assert game.priority(2) == 1 and game.owner(2) == 0
        assert game.sink == 2
        assert game.label(1) == "d1"
        assert validate_game(game, require_sink=True) == []

    def test_statements_may_share_a_line(self):
        one_line = parse_pgsolver("0 2 0 1; 1 3 1 0;")
        multi_line = parse_pgsolver("0 2 0 1;\n1 3 1 0;\n")
        assert one_line == multi_line

    def test_header_is_optional(self):
        assert parse_pgsolver("0 2 0 0;").num_nodes == 1

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_pgsolver("")
        assert err.value.line == 1

    def test_dangling_successor_names_the_id(self):
        with pytest.raises(ParseError, match="99"):
            parse_pgsolver("0 2 0 0,99;")

    def test_duplicate_node_id(self):
        with pytest.raises(ParseError, match="duplicate node id 0"):
            parse_pgsolver("0 2 0 0; 0 3 1 0;")

    def test_missing_successors(self):
        with pytest.raises(ParseError, match="successor"):
            parse_pgsolver("0 2 0;")

    def test_owner_must_be_binary(self):
        with pytest.raises(ParseError, match="owner"):
            parse_pgsolver("0 2 4 0;")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match="terminating"):
            parse_pgsolver("0 2 0 0")

    def test_unterminated_label(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_pgsolver('0 2 0 0 "half;')

    def test_error_positions_are_tracked(self):
        with pytest.raises(ParseError) as err:
            parse_pgsolver("0 2 0 1;\n1 ? 1 0;")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_negative_numbers_rejected(self):
        with pytest.raises(ParseError):
            parse_pgsolver("0 -2 0 0;")

    def test_labels_may_hold_semicolons(self):
        game = parse_pgsolver('0 2 0 1 "a;b"; 1 3 1 0;')
        assert game.label(0) == "a;b"

    @pytest.mark.parametrize(
        "text, column",
        [
            ("0 \u00b2 0 0;", 3),  # superscript two: str.isdigit, but int() fails
            ("\u0663 2 0 0;", 1),  # Arabic-Indic three: int() reads it as 3
            ("0 2 0 0,1\u0663;", 10),
        ],
    )
    def test_only_ascii_digits_count(self, text, column):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_pgsolver(text)
        assert (err.value.line, err.value.column) == (1, column)


class TestHeaderBound:
    def test_id_above_the_header_maximum(self):
        with pytest.raises(ParseError, match="node id 2 exceeds the header's maximum 1") as err:
            parse_pgsolver("parity 1;\n0 2 0 1;\n1 3 1 0;\n  2 4 0 0;")
        assert (err.value.line, err.value.column) == (4, 3)

    def test_ids_up_to_the_maximum_are_fine(self):
        assert parse_pgsolver("parity 5; 5 2 0 5;").node_ids == (5,)

    def test_without_a_header_ids_are_unbounded(self):
        assert parse_pgsolver("12345 2 0 12345;").node_ids == (12345,)


LONG = "1" * (MAX_DIGITS + 1)
MOST = "9" * MAX_DIGITS


class TestDigitCap:
    """Numbers have at most MAX_DIGITS digits, checked by the parser and
    not by ``int()``, so that every supported Python refuses the same
    files, at the number, as the reference does."""

    @pytest.mark.parametrize(
        "text, line, column",
        [
            (f"parity {LONG};\n0 1 0 0;\n", 1, 8),
            (f"0 1 0 0;\n{LONG} 2 0 0;\n", 2, 1),
            (f"parity 1;\n0 {LONG} 0 1;\n1 3 1 0;\n", 2, 3),
            (f"parity 1;\n0 1 0 1,{LONG};\n1 3 1 0;\n", 2, 9),
            (f"0 1 0 0{LONG};\n", 1, 7),
        ],
        ids=["header", "node-id", "priority", "successor", "leading-digits"],
    )
    def test_a_longer_number_is_refused_where_it_starts(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_pgsolver(text)
        assert str(err.value) == f"number has more than 4300 digits (line {line}, column {column})"
        assert _outcome(reference.parse_pgsolver, text) == _outcome(parse_pgsolver, text)

    def test_the_cap_holds_whatever_the_interpreter_limit(self):
        # with Python's own limit off, the parser still refuses
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ParseError, match="number has more than 4300 digits"):
                parse_pgsolver(f"0 {LONG} 0 0;")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_numbers_of_the_most_digits_parse(self):
        game = parse_pgsolver(f"parity {MOST};\n{MOST} {MOST} 0 {'0' * 4299}1,{MOST};\n1 2 1 1;\n")
        assert game.node_ids == (1, int(MOST))
        assert game.priority(int(MOST)) == int(MOST)
        assert game.successors(int(MOST)) == (1, int(MOST))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter digit limit"
    )
    def test_numbers_of_the_most_digits_parse_under_a_lowered_limit(self):
        # 640 is the least limit Python accepts; int(MOST) needs the default
        top, mid = int(MOST), int("7" * 2000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = f"parity {MOST};\n{MOST} {'7' * 2000} 0 1,{MOST};\n1 2 1 1;\n"
            game = parse_pgsolver(text)
            strategy = parse_strategy_text(f"{MOST} {'0' * 10}1\n", game)
        finally:
            sys.set_int_max_str_digits(limit)
        assert game.node_ids == (1, top)
        assert game.priority(top) == mid
        assert game.successors(top) == (1, top)
        assert strategy.choice == {top: 1}

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter digit limit"
    )
    @pytest.mark.parametrize("digits", [700, 640, 1300])
    @pytest.mark.parametrize("gap", [" ,", "\t, ", ",\n", " , "])
    def test_long_successor_ids_beside_separators_parse_under_a_lowered_limit(self, digits, gap):
        # int() skips the separators around a successor id; read in runs of
        # 640 digits, they must not count as digits
        sevens = "7" * digits
        text = f"0 1 0 {sevens}{gap}0;\n{sevens} 2 1 0 {gap}{sevens};\n"
        expected = parse_pgsolver(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            game = parse_pgsolver(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert game.columns() == expected.columns()
        assert game.successors(0) == (int(sevens), 0)

    def test_a_number_that_would_not_parse_back_is_not_written(self):
        refusal = "^a node id or priority has more than 4300 digits$"
        with pytest.raises(ValueError, match=refusal):
            write_pgsolver(ParityGame([10**4300], [0], [1], [None], [(10**4300,)], None))
        with pytest.raises(ValueError, match=refusal):
            write_pgsolver(ParityGame([0], [0], [10**4300], [None], [(0,)], None))
        top = int(MOST)
        game = ParityGame([top], [0], [top], [None], [(top,)], None)
        text = write_pgsolver(game)
        assert write_pgsolver(parse_pgsolver(text)) == text


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter digit limit"
)
class TestMessagesUnderALoweredLimit:
    """Errors that name a 2,000-digit id read the same under digit limit 640
    as under the default."""

    SEVENS = "7" * 2000

    @staticmethod
    def _under_limit_640(call):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            call()
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "text",
        [
            f"{SEVENS} 2 0 {SEVENS};\n{SEVENS} 3 1 {SEVENS};\n",
            f"parity 5;\n{SEVENS} 2 0 {SEVENS};\n",
            f"{SEVENS} 2 0 5;\n",
        ],
        ids=["duplicate-id", "above-header-maximum", "dangling-successor"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError) as default:
            parse_pgsolver(text)
        assert len(str(default.value)) > 2000
        with pytest.raises(ParseError) as lowered:
            self._under_limit_640(lambda: parse_pgsolver(text))
        assert str(lowered.value) == str(default.value)

    @pytest.mark.parametrize(
        "text", [f"{SEVENS} {SEVENS}\n{SEVENS} {SEVENS}\n", f"{'8' * 2000} 1\n"],
        ids=["repeated-node", "unknown-node"],
    )
    def test_strategy_errors(self, text):
        game = parse_pgsolver(f"{self.SEVENS} 2 0 {self.SEVENS};\n")
        with pytest.raises(ValueError) as default:
            parse_strategy_text(text, game)
        assert len(str(default.value)) > 2000
        with pytest.raises(ValueError) as lowered:
            self._under_limit_640(lambda: parse_strategy_text(text, game))
        assert str(lowered.value) == str(default.value)


class TestWrite:
    def test_canonical_shape(self):
        inst = gen_table1(2)
        text = write_pgsolver(inst.game)
        lines = text.strip().splitlines()
        assert lines[0] == "parity 5;"
        assert len(lines) == 1 + 6  # header plus one line per node
        assert lines[1].startswith('0 3 0 ')
        assert all(line.endswith(";") for line in lines)

    def test_negative_priorities_rejected(self):
        game = ParityGame([0], [0], [-1], [None], [(0,)])
        with pytest.raises(ValueError, match="negative priority"):
            write_pgsolver(game)

    @pytest.mark.parametrize("label", ['a"b', "a\nb"])
    def test_unreadable_labels_rejected(self, label):
        game = ParityGame([0], [0], [1], [label], [(0,)])
        with pytest.raises(ValueError, match="label"):
            write_pgsolver(game)

    @pytest.mark.parametrize(
        "game, message",
        [
            (ParityGame([0, 1], [0, 1], [2, -1], [None, None], [(1,), (0,)]), "negative priority"),
            (ParityGame([0, 1], [0, 1], [2, 1], [None, 'a"b'], [(1,), (0,)]), "label"),
            (ParityGame([10**4300], [0], [1], [None], [(0,)]), "4300 digits"),
            (ParityGame([], [], [], [], []), "^a game without nodes has no PGSolver text$"),
        ],
        ids=["negative-priority", "quote-in-label", "long-id", "no-nodes"],
    )
    def test_lines_are_refused_before_the_first_is_made(self, game, message):
        # the call itself raises, before any line is asked for
        with pytest.raises(ValueError, match=message):
            pgsolver_lines(game)
        with pytest.raises(ValueError, match=message):
            write_pgsolver(game)

    @pytest.mark.parametrize(
        "other, message",
        [(label, "^node 1 has label 7; labels must be strings$") for label in (None, "a", "")]
        + [(label, f"^node 0 has label {label}; labels must be strings$") for label in (0, False, 0.0)]
        + [('q"', "^node 0 has label 'q\"'; labels cannot hold")],
    )
    def test_a_label_that_is_not_a_string_is_refused_before_the_first_line(self, other, message):
        # node 1's label makes the column's join raise TypeError, a falsy
        # label that is not None is left out of the join and counted, and
        # the rescan names the first node at fault
        game = ParityGame([0, 1, 2], [0, 1, 0], [2, 1, 3], [other, 7, "b"], [(1,), (2,), (0,)])
        with pytest.raises(ValueError, match=message):
            pgsolver_lines(game)
        with pytest.raises(ValueError, match=message):
            write_pgsolver(game)

    def test_first_offending_node_is_named_whatever_its_fault(self):
        game = ParityGame([0, 1, 2], [0, 1, 0], [2, 1, -1], [None, 'a"', None], [(1,), (2,), (0,)])
        with pytest.raises(ValueError, match="^node 1 has label"):
            write_pgsolver(game)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_lines_end_in_line_breaks_and_join_to_the_text(self, n):
        game = gen_table2(n).game
        lines = list(pgsolver_lines(game))
        assert len(lines) == game.num_nodes + 1
        assert all(line.endswith(";\n") and line.count("\n") == 1 for line in lines)
        assert "".join(lines) == write_pgsolver(game)

    def test_awkward_labels_round_trip(self):
        labels = ["", "a;b", "tab\there", "r\r", "\u00e9\u00b2 ,"]
        n = len(labels)
        successors = [((v + 1) % n,) for v in range(n)]
        game = ParityGame(range(n), [v % 2 for v in range(n)], range(1, n + 1), labels, successors)
        assert parse_pgsolver(write_pgsolver(game)) == game


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_ladder_games(self, n):
        game = gen_table1(n).game
        assert parse_pgsolver(write_pgsolver(game)) == game

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gadget_games(self, n):
        game = gen_table2(n).game
        assert parse_pgsolver(write_pgsolver(game)) == game

    def test_reduced_games(self):
        rng = random.Random(113)
        for _ in range(25):
            reduced, _ = reduce_game(random_parity_game(rng))
            assert parse_pgsolver(write_pgsolver(reduced)) == reduced

    def test_labels_survive(self):
        game = gen_table2(2).game
        back = parse_pgsolver(write_pgsolver(game))
        assert all(back.label(v) == game.label(v) for v in game.node_ids)

    def test_hand_encoded_normal_form(self):
        game = parse_pgsolver(HAND_ENCODED)
        text = write_pgsolver(game)
        assert parse_pgsolver(text) == game
        assert write_pgsolver(parse_pgsolver(text)) == text


SPACE = st.sampled_from([" ", "  ", "\n", "\t", " \r\n"])
GAP = st.one_of(st.just(""), SPACE)


def _number(draw, value: int) -> str:
    return "0" * draw(st.integers(0, 1)) * (value > 0) + str(value)


@st.composite
def valid_texts(draw) -> str:
    """PGSolver texts the original parser accepts, in varied layouts:
    optional header, gaps in the ids, leading zeros, empty statements,
    labels holding ';' and non-ASCII letters."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
    parts = [draw(st.sampled_from(["", ";", " ;\n"]))]
    if draw(st.booleans()):
        top = max(ids) + draw(st.integers(0, 3))
        parts.append(f"parity{draw(SPACE)}{top}{draw(GAP)};{draw(GAP)}")
    label_text = st.text(st.characters(blacklist_characters='"\n', max_codepoint=0x3FF), max_size=4)
    for v in ids:
        succs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
        fields = [
            _number(draw, v), draw(SPACE), _number(draw, draw(st.integers(0, 40))), draw(SPACE),
            str(draw(st.integers(0, 1))), draw(SPACE),
            f"{draw(GAP)},{draw(GAP)}".join(_number(draw, w) for w in succs),
        ]
        if draw(st.booleans()):
            fields += [draw(GAP), '"', draw(label_text), '"']
        fields += [draw(GAP), ";", draw(st.sampled_from(["", " ", "\n", ";", "\n;\n"]))]
        parts.append("".join(fields))
    return "".join(parts)


# Mutation alphabet: token characters, separators, a non-ASCII digit, and
# characters that are letters, numbers or spaces only outside ASCII.
MUTATION_CHARS = '0123456789 \t\n\r;,"ab_-?.\u00b2\u00e9\u00bd\u00a0\f'


@st.composite
def mutated_texts(draw) -> str:
    text = draw(valid_texts())
    at = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    char = draw(st.sampled_from(MUTATION_CHARS))
    if kind == "insert":
        return text[:at] + char + text[at:]
    if kind == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + char + text[at + 1:]


@st.composite
def long_digit_texts(draw) -> str:
    """A valid text with a run of about MAX_DIGITS digits inserted."""
    text = draw(valid_texts())
    at = draw(st.integers(0, len(text)))
    run = draw(st.sampled_from("019")) * (MAX_DIGITS + draw(st.integers(-2, 1)))
    return text[:at] + run + text[at:]


def _outcome(parse, text):
    try:
        return ("game", parse(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


HEADER_BOUND = re.compile(r"node id (\d+) exceeds the header's maximum (\d+) ")


def _deliberate(text: str, error: tuple) -> bool:
    """Is this one of the two intended departures from the reference: an
    id above the header's maximum, or a non-ASCII digit refused as an
    unexpected character?"""
    _, message, line, column = error
    bound = HEADER_BOUND.match(message)
    if bound:
        return int(bound[1]) > int(bound[2])
    char = text.split("\n")[line - 1][column - 1]
    return message.startswith("unexpected character") and char.isdigit() and not char.isascii()


class TestAgainstReference:
    """The one-pass parser against a frozen copy of the original
    character-scanning one (tests/pgsolver_reference.py)."""

    @settings(max_examples=150, deadline=None)
    @given(valid_texts())
    def test_same_game_on_valid_texts(self, text):
        assert parse_pgsolver(text) == reference.parse_pgsolver(text)

    @settings(max_examples=300, deadline=None)
    @given(mutated_texts())
    def test_same_error_after_one_mutation(self, text):
        new = _outcome(parse_pgsolver, text)
        try:
            old = _outcome(reference.parse_pgsolver, text)
        except ValueError as exc:  # the reference's int() on a non-ASCII digit
            old = ("crash", str(exc))
        if new != old:
            assert new[0] == "error" and _deliberate(text, new), (new, old)

    @settings(max_examples=100, deadline=None)
    @given(long_digit_texts())
    def test_same_outcome_with_a_long_digit_run(self, text):
        new = _outcome(parse_pgsolver, text)
        old = _outcome(reference.parse_pgsolver, text)
        if new != old:
            assert new[0] == "error" and _deliberate(text, new), (new, old)


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(), st.text(st.sampled_from(MUTATION_CHARS + "parity\u0663\u00b2"))))
    def test_any_text_gives_a_valid_game_or_a_parse_error(self, text):
        try:
            game = parse_pgsolver(text)
        except ParseError:
            return
        assert validate_game(game) == []
        assert parse_pgsolver(write_pgsolver(game)) == game
