"""Trace files (CSV and JSON) and plain-text strategy files.

A trace file records one row per applied switch: iteration index, owner,
source, target. The header identifies the run (game id, algorithm, rule,
seed, game size); the footer carries the switching-iteration count and the
optimality certificate status. Both serializations hold the same rows.

Strategy files are one ``<node-id> <successor-id>`` pair of ASCII numbers per line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .game import ParityGame, Strategy, check_strategy
from .pgsolver import MAX_DIGITS, NUMBER_END, int_reader, int_text
from .solvers import SolveResult, verify_optimal
from .valuation import NotAdmissibleError

Row = tuple[int, int, int, int]  # iteration, owner, from, to

# numbers are runs of ASCII digits, as in game and strategy files
_NUM = f"[0-9]{{1,{MAX_DIGITS}}}"
# the keys in the order to_csv writes them; only the game id may hold blanks
_CSV_HEADER = re.compile(
    rf"# game=(.*) algorithm=(\S*) rule=(\S*) seed=(-|-?{_NUM}) nodes=({_NUM}) edges=({_NUM})"
)
_CSV_FOOTER = re.compile(rf"# iterations=({_NUM}) certificate=(\S*)")
_CSV_ROW = re.compile(rf"({_NUM}),({_NUM}),({_NUM}),({_NUM})")


@dataclass(frozen=True)
class TraceHeader:
    game_id: str
    algorithm: str
    rule: str
    seed: int | None
    nodes: int
    edges: int


@dataclass(frozen=True)
class TraceFile:
    header: TraceHeader
    rows: tuple[Row, ...]
    iterations: int
    certificate: str


def certificate_status(game: ParityGame, result: SolveResult) -> str:
    """"verified" when the run's terminal strategies pass the pair check of
    :func:`~sinkgames.solvers.verify_optimal`.

    A one-strategy run is paired with the best response to its final
    valuation, which passes exactly when the strategy has no improving move
    (see :func:`~sinkgames.reduction.solve_winners`). The response to a
    strategy that can still improve may be inadmissible; that reads as
    "failed" too.
    """
    sigma = result.sigma if result.sigma is not None else result.xi_tau.counter
    tau = result.tau if result.tau is not None else result.xi_sigma.counter
    try:
        return "verified" if verify_optimal(game, sigma, tau).ok else "failed"
    except NotAdmissibleError:
        return "failed"


def build_trace_file(
    game: ParityGame,
    result: SolveResult,
    game_id: str,
    algorithm: str,
    rule: str,
    seed: int | None = None,
    *,
    certificate: str,
) -> TraceFile:
    """The trace of a finished run; ``certificate`` is the run's
    :func:`certificate_status`."""
    header = TraceHeader(game_id, algorithm, rule, seed, game.num_nodes, game.num_edges)
    rows = tuple(
        (record.index, owner, source, target)
        for record in result.trace.iterations
        for owner, source, target in record.switches
    )
    return TraceFile(header, rows, result.iterations, certificate)


def to_csv(trace: TraceFile) -> str:
    """The trace as CSV; a game id holding a newline raises ValueError."""
    h = trace.header
    if "\n" in h.game_id:
        raise ValueError(f"a CSV trace cannot hold the game id {h.game_id!r}, which has a newline")
    seed = "-" if h.seed is None else str(h.seed)
    lines = [
        f"# game={h.game_id} algorithm={h.algorithm} rule={h.rule} seed={seed}"
        f" nodes={h.nodes} edges={h.edges}",
        "iteration,owner,from,to",
    ]
    lines.extend(f"{it},{owner},{src},{dst}" for it, owner, src, dst in trace.rows)
    lines.append(f"# iterations={trace.iterations} certificate={trace.certificate}")
    return "\n".join(lines) + "\n"


def from_csv(text: str) -> TraceFile:
    # only LF ends a line, as a game id may hold other breaks; CRLF reads too
    lines = [line.removesuffix("\r") for line in text.split("\n") if line.strip()]
    if len(lines) < 3 or not lines[0].startswith("#") or not lines[-1].startswith("#"):
        raise ValueError("not a trace CSV: missing header or footer comment lines")

    head = _CSV_HEADER.fullmatch(lines[0])
    if head is None:
        raise ValueError("unexpected trace CSV header comment")
    foot = _CSV_FOOTER.fullmatch(lines[-1])
    if foot is None:
        raise ValueError("trace CSV footer must be '# iterations=<count> certificate=<status>'")
    if lines[1] != "iteration,owner,from,to":
        raise ValueError("unexpected trace CSV column header")
    rows = []
    for number, line in enumerate(lines[2:-1], start=1):
        row = _CSV_ROW.fullmatch(line)
        if row is None:
            message = f"trace CSV row {number} must be four numbers 'iteration,owner,from,to'"
            raise ValueError(message)
        rows.append(tuple(map(int, row.groups())))
    game_id, algorithm, rule, seed, nodes, edges = head.groups()
    header = TraceHeader(
        game_id, algorithm, rule, None if seed == "-" else int(seed), int(nodes), int(edges)
    )
    return TraceFile(header, tuple(rows), int(foot[1]), foot[2])


def to_json(trace: TraceFile) -> str:
    h = trace.header
    payload = {
        "header": {
            "game": h.game_id,
            "algorithm": h.algorithm,
            "rule": h.rule,
            "seed": h.seed,
            "nodes": h.nodes,
            "edges": h.edges,
        },
        "rows": trace.rows,
        "footer": {"iterations": trace.iterations, "certificate": trace.certificate},
    }
    return _indented(payload) + "\n"


def _indented(value: object, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of JSON scalars in dicts, lists and
    tuples. That encoder is made of closures that call each other, a
    reference cycle that only the cyclic collector frees; this one leaves
    none."""
    if type(value) is int:  # the bulk of a trace, and faster than json.dumps
        return str(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(key)}: {_indented(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join([_indented(item, inner) for item in value]) + pad + "]"


# the members of each part of a JSON trace, with their types
_JSON_PARTS = {
    "file": {"header": dict, "rows": list, "footer": dict},
    "header": {
        "game": str, "algorithm": str, "rule": str, "seed": (int, type(None)),
        "nodes": int, "edges": int,
    },
    "footer": {"iterations": int, "certificate": str},
}


# the numbers that, as in a CSV trace, cannot be negative; the seed can
_NATURAL = {"nodes", "edges", "iterations"}


def _members(part: object, name: str) -> list:
    """The members of a part in order. As in the CSV form, a number has at
    most MAX_DIGITS digits, whatever the interpreter's own int digit limit,
    and only the seed may be negative."""
    if not isinstance(part, dict):
        raise ValueError(f"trace JSON {name} is not an object")
    values = []
    for key, kind in _JSON_PARTS[name].items():
        if key not in part:
            raise ValueError(f"trace JSON {name} has no {key!r}")
        value = part[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"trace JSON {name} has a malformed {key!r}")
        if type(value) is int:
            if key in _NATURAL and value < 0:
                raise ValueError(f"trace JSON {name} has a negative {key!r}")
            if abs(value) >= NUMBER_END:
                message = f"trace JSON {name} has a {key!r} of more than {MAX_DIGITS} digits"
                raise ValueError(message)
        values.append(value)
    return values


def from_json(text: str) -> TraceFile:
    h, rows, footer = _members(json.loads(text), "file")
    header = TraceHeader(*_members(h, "header"))
    iterations, certificate = _members(footer, "footer")
    for number, row in enumerate(rows, start=1):
        if not (isinstance(row, list) and len(row) == 4 and all(type(x) is int for x in row)):
            raise ValueError("trace JSON rows must be lists of four integers")
        if not all(0 <= x < NUMBER_END for x in row):
            message = f"trace JSON row {number} must be four nonnegative numbers"
            raise ValueError(f"{message} of at most {MAX_DIGITS} digits")
    return TraceFile(header, tuple(map(tuple, rows)), iterations, certificate)


def write_strategy_text(strategy: Strategy) -> str:
    return "".join(f"{v} {w}\n" for v, w in sorted(strategy.choice.items()))


def parse_strategy_text(text: str, game: ParityGame) -> Strategy:
    """Read a strategy file against a game; the owning player is inferred
    from the listed nodes and the choice map must be total for that player."""
    to_int = int_reader()
    choice: dict[int, int] = {}
    # lines end in LF or CRLF, and only spaces and tabs separate tokens
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        parts = [p for p in line.replace("\t", " ").split(" ") if p]
        if not parts:
            continue
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"strategy line {lineno} must be '<node-id> <successor-id>'")
        if max(map(len, parts)) > MAX_DIGITS:
            message = f"strategy line {lineno} has a number of more than {MAX_DIGITS} digits"
            raise ValueError(message)
        v, w = to_int(parts[0]), to_int(parts[1])
        if v in choice:
            raise ValueError(f"strategy line {lineno} repeats node {int_text(v)}")
        choice[v] = w
    if not choice:
        raise ValueError("strategy file lists no choices")
    for v in choice:
        if v not in game:
            raise ValueError(f"strategy names node {int_text(v)} which is not in the game")
    owners = {game.owner(v) for v in choice}
    if len(owners) != 1:
        raise ValueError("strategy file mixes nodes of both players")
    strategy = Strategy(owners.pop(), choice)
    check_strategy(game, strategy)
    return strategy
