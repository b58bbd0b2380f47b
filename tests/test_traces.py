"""Trace file serialization and strategy files."""

import json
import random
import re
import sys

import pytest

from conftest import random_admissible_strategy, random_sink_game
from sinkgames.families import gen_table1
from sinkgames.rules import switch_all_rule
from sinkgames.solvers import IterationTrace, SolveResult, run_ssi
from sinkgames.pgsolver import MAX_DIGITS
from sinkgames.traces import (
    TraceFile,
    TraceHeader,
    build_trace_file,
    certificate_status,
    from_csv,
    from_json,
    parse_strategy_text,
    to_csv,
    to_json,
    write_strategy_text,
)
from sinkgames.valuation import improving_moves, is_admissible, valuate


@pytest.fixture(scope="module")
def ladder_run():
    inst = gen_table1(3)
    result = run_ssi(inst.game, inst.sigma0, inst.tau0, switch_all_rule())
    status = certificate_status(inst.game, result)
    trace = build_trace_file(inst.game, result, "table1-n3", "ssi", "all", certificate=status)
    return inst, result, trace


class TestTraceFile:
    def test_row_count_matches_switch_totals(self, ladder_run):
        _, result, trace = ladder_run
        assert len(trace.rows) == sum(len(r.switches) for r in result.trace.iterations)

    def test_footer_counts_distinct_iterations(self, ladder_run):
        _, result, trace = ladder_run
        assert trace.iterations == result.iterations
        assert trace.iterations == len({row[0] for row in trace.rows})

    def test_certificate_is_verified(self, ladder_run):
        _, _, trace = ladder_run
        assert trace.certificate == "verified"

    def test_header_captures_game_shape(self, ladder_run):
        inst, _, trace = ladder_run
        assert trace.header.nodes == inst.game.num_nodes
        assert trace.header.edges == inst.game.num_edges
        assert trace.header.seed is None

    def test_csv_and_json_hold_identical_rows(self, ladder_run):
        _, _, trace = ladder_run
        assert from_csv(to_csv(trace)).rows == from_json(to_json(trace)).rows == trace.rows

    def test_csv_roundtrip(self, ladder_run):
        _, _, trace = ladder_run
        assert from_csv(to_csv(trace)) == trace

    def test_json_roundtrip(self, ladder_run):
        _, _, trace = ladder_run
        assert from_json(to_json(trace)) == trace

    @pytest.mark.parametrize("game_id", ["my game.pg", "my\tgame.pg"], ids=["space", "tab"])
    def test_csv_roundtrip_with_blank_in_game_id(self, ladder_run, game_id):
        inst, result, trace = ladder_run
        named = build_trace_file(
            inst.game, result, game_id, "ssi", "all", 7, certificate=trace.certificate
        )
        text = to_csv(named)
        assert text.startswith(f"# game={game_id} algorithm=ssi rule=all seed=7 ")
        assert from_csv(text) == named

    @pytest.mark.parametrize(
        "game_id",
        ["a\rb.pg", "a\x0bb.pg", "a\x0cb.pg", "a\x1cb.pg", "a\x1db.pg", "a\x1eb.pg",
         "a\x85b.pg", "a\u2028b.pg", "a\u2029b.pg", "a\r"],
        ids=["cr", "vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps", "trailing-cr"],
    )
    def test_csv_roundtrip_with_line_break_in_game_id(self, ladder_run, game_id):
        # every line break but LF stays inside the header comment, as it
        # does in a JSON trace
        inst, result, trace = ladder_run
        named = build_trace_file(
            inst.game, result, game_id, "ssi", "all", 7, certificate=trace.certificate
        )
        assert from_csv(to_csv(named)) == named == from_json(to_json(named))

    def test_csv_refuses_a_newline_in_game_id(self, ladder_run):
        inst, result, trace = ladder_run
        named = build_trace_file(
            inst.game, result, "a\nb.pg", "ssi", "all", certificate=trace.certificate
        )
        with pytest.raises(ValueError, match="cannot hold the game id 'a\\\\nb.pg'"):
            to_csv(named)
        assert from_json(to_json(named)) == named

    def test_csv_with_crlf_line_ends(self, ladder_run):
        _, _, trace = ladder_run
        assert from_csv(to_csv(trace).replace("\n", "\r\n")) == trace

    def test_csv_shape(self, ladder_run):
        _, _, trace = ladder_run
        lines = to_csv(trace).strip().splitlines()
        assert lines[0].startswith("# game=table1-n3 algorithm=ssi rule=all seed=-")
        assert lines[1] == "iteration,owner,from,to"
        assert lines[-1].startswith("# iterations=13 certificate=verified")


    @pytest.mark.parametrize("seed", [-5, 0, 12345678901234567890])
    def test_roundtrip_with_any_seed(self, ladder_run, seed):
        inst, result, trace = ladder_run
        seeded = build_trace_file(
            inst.game, result, "g.pg", "ssi", "random", seed, certificate=trace.certificate
        )
        assert from_csv(to_csv(seeded)) == seeded == from_json(to_json(seeded))


def _csv_footer(line):
    return lambda text: text.replace("# iterations=13 certificate=verified", line)


def _json_edit(change):
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


@pytest.mark.parametrize(
    "reader, edit, message",
    [
        (from_csv, _csv_footer("# certificate=verified"), "footer"),
        (from_csv, _csv_footer("# iterations=13 certificate"), "footer"),
        (from_csv, _csv_footer("# iterations=x certificate=verified"), "footer"),
        (from_csv, lambda text: text.replace("\n1,0,", "\n\u0661,0,", 1), "row 1 "),
        (from_csv, lambda text: text.replace("\n1,0,0,5\n", "\n1,0,0\n", 1), "row 1 "),
        (from_json, lambda text: '{"header": {}}', "has no 'rows'"),
        (from_json, lambda text: "[]", "file is not an object"),
        (from_json, _json_edit(lambda p: p["header"].pop("game")), "header has no 'game'"),
        (from_json, _json_edit(lambda p: p["footer"].pop("certificate")), "footer has no 'certificate'"),
        (from_json, _json_edit(lambda p: p["rows"][0].pop()), "rows"),
        (from_json, _json_edit(lambda p: p["header"].update(nodes="8")), "malformed 'nodes'"),
        (from_json, _json_edit(lambda p: p["footer"].update(iterations=True)), "'iterations'"),
    ],
    ids=[
        "csv-footer-no-iterations", "csv-footer-token-without-value", "csv-footer-not-a-number",
        "csv-arabic-indic-digit", "csv-short-row", "json-header-only", "json-list",
        "json-header-no-game", "json-footer-no-certificate", "json-short-row",
        "json-nodes-not-a-number", "json-iterations-not-a-number",
    ],
)
def test_malformed_trace_raises_value_error_naming_the_part(ladder_run, reader, edit, message):
    _, _, trace = ladder_run
    text = edit((to_csv if reader is from_csv else to_json)(trace))
    with pytest.raises(ValueError, match=re.escape(message)):
        reader(text)


@pytest.fixture
def no_int_digit_limit():
    """Python's own int digit limit lifted, as on a Python that has none
    (before 3.10.7): json.loads then reads a number of any length."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


LONG = 10**MAX_DIGITS  # the least number of more than MAX_DIGITS digits


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda p: p["header"].update(nodes=-1), "header has a negative 'nodes'"),
        (lambda p: p["header"].update(edges=-1), "header has a negative 'edges'"),
        (lambda p: p["footer"].update(iterations=-5), "footer has a negative 'iterations'"),
        (lambda p: p["rows"].__setitem__(0, [1, 7, -2, 3]), "row 1 must be four nonnegative"),
        (lambda p: p["rows"][-1].__setitem__(0, -1), "row 17 must be four nonnegative numbers"),
        (lambda p: p["header"].update(nodes=LONG), "header has a 'nodes' of more than 4300 digits"),
        (lambda p: p["header"].update(seed=-LONG), "header has a 'seed' of more than 4300 digits"),
        (lambda p: p["footer"].update(iterations=LONG), "'iterations' of more than 4300 digits"),
        (lambda p: p["rows"][1].__setitem__(3, LONG), "row 2 must be four nonnegative numbers"),
    ],
    ids=[
        "negative-nodes", "negative-edges", "negative-iterations", "negative-row-entry",
        "negative-last-row-iteration", "long-nodes", "long-seed", "long-iterations",
        "long-row-entry",
    ],
)
def test_json_refuses_what_the_csv_form_refuses(ladder_run, no_int_digit_limit, change, message):
    _, _, trace = ladder_run
    payload = json.loads(to_json(trace))
    change(payload)
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(json.dumps(payload))
    # the same trace, built without the JSON reader's checks, has a CSV form
    # that from_csv refuses
    head, footer = payload["header"], payload["footer"]
    keys = ("game", "algorithm", "rule", "seed", "nodes", "edges")
    unchecked = TraceFile(
        TraceHeader(*map(head.get, keys)),
        tuple(map(tuple, payload["rows"])), footer["iterations"], footer["certificate"],
    )
    with pytest.raises(ValueError):
        from_csv(to_csv(unchecked))


def test_one_strategy_certificate_is_the_pair_check_with_the_best_response():
    # a one-strategy result is verified exactly when its strategy has no
    # improving move; the best response to one that has may be inadmissible
    statuses = {"verified": 0, "failed": 0}
    inadmissible_responses = 0
    for seed in range(300):
        rng = random.Random(seed)
        game = random_sink_game(rng)
        for player in (0, 1):
            strategy = random_admissible_strategy(game, player, rng)
            xi = valuate(game, strategy)
            own = (strategy, xi) if player == 0 else (None, None)
            other = (None, None) if player == 0 else (strategy, xi)
            result = SolveResult(own[0], other[0], own[1], other[1], 0, IterationTrace(()))
            expected = "failed" if improving_moves(game, strategy, xi) else "verified"
            assert certificate_status(game, result) == expected
            statuses[expected] += 1
            inadmissible_responses += not is_admissible(game, xi.counter)
    assert statuses == {"verified": 304, "failed": 296}
    assert inadmissible_responses == 136


class TestStrategyFiles:
    def test_roundtrip(self, ladder_run):
        inst, result, _ = ladder_run
        text = write_strategy_text(result.sigma)
        back = parse_strategy_text(text, inst.game)
        assert back == result.sigma

    def test_format_is_one_pair_per_line(self, ladder_run):
        inst, _, _ = ladder_run
        text = write_strategy_text(inst.sigma0)
        for line in text.strip().splitlines():
            v, w = line.split()
            assert int(w) in inst.game.successors(int(v))

    def test_rejects_mixed_owners(self, ladder_run):
        inst, _, _ = ladder_run
        a1 = inst.id_of("a1")
        d1 = inst.id_of("d1")
        with pytest.raises(ValueError, match="mixes"):
            parse_strategy_text(f"{a1} {inst.id_of('a2')}\n{d1} {inst.id_of('d2')}\n", inst.game)

    def test_rejects_partial_coverage(self, ladder_run):
        inst, _, _ = ladder_run
        a1, a2 = inst.id_of("a1"), inst.id_of("a2")
        with pytest.raises(ValueError, match="missing"):
            parse_strategy_text(f"{a1} {a2}\n", inst.game)

    def test_rejects_non_edges(self, ladder_run):
        inst, _, _ = ladder_run
        text = write_strategy_text(inst.sigma0).replace(
            f"{inst.id_of('a1')} {inst.id_of('a2')}",
            f"{inst.id_of('a1')} {inst.id_of('a1')}",
        )
        with pytest.raises(ValueError, match="non-edge"):
            parse_strategy_text(text, inst.game)

    def test_rejects_unknown_nodes(self, ladder_run):
        inst, _, _ = ladder_run
        with pytest.raises(ValueError, match="not in the game"):
            parse_strategy_text("99 0\n", inst.game)

    def test_rejects_garbage_lines(self, ladder_run):
        inst, _, _ = ladder_run
        with pytest.raises(ValueError, match="line 1"):
            parse_strategy_text("zero one\n", inst.game)
