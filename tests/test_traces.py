"""Trace file serialization and strategy files."""

import pytest

from sinkgames.families import gen_table1
from sinkgames.rules import switch_all_rule
from sinkgames.solvers import run_ssi
from sinkgames.traces import (
    build_trace_file,
    certificate_status,
    from_csv,
    from_json,
    parse_strategy_text,
    to_csv,
    to_json,
    write_strategy_text,
)


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
