"""Frozen copy of the original character-scanning PGSolver parser.

Test-only reference for the differential tests in ``test_pgsolver.py``:
the library parser must agree with it on every valid text and raise the
same ``ParseError`` (message, line, column) on malformed ones, apart from
two deliberate changes (only ASCII digits count, and ids above the
``parity <max-id>`` header are refused). Do not edit it to follow the
library. Its one later edit mirrors a refusal the library declared: a
number of more than 4,300 digits, which ``int()`` refuses by default since
Python 3.11, is a ``ParseError`` at the number.
"""

from __future__ import annotations

from dataclasses import dataclass

from sinkgames.game import ParityGame, infer_sink, validate_game
from sinkgames.pgsolver import ParseError


@dataclass(frozen=True)
class _Token:
    kind: str  # "nat", "word", "string", "comma", "semi"
    value: str
    line: int
    column: int


def _scan(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        start_col = col
        if ch == ",":
            tokens.append(_Token("comma", ",", line, start_col))
            i += 1
            col += 1
            continue
        if ch == ";":
            tokens.append(_Token("semi", ";", line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < len(text) and text[j] not in '"\n':
                j += 1
            if j >= len(text) or text[j] != '"':
                raise ParseError("unterminated label string", line, start_col)
            tokens.append(_Token("string", text[i + 1: j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j - i > 4300:
                raise ParseError("number has more than 4300 digits", line, start_col)
            tokens.append(_Token("nat", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("word", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    return tokens


def _statements(tokens: list[_Token]) -> list[list[_Token]]:
    out: list[list[_Token]] = []
    current: list[_Token] = []
    for token in tokens:
        if token.kind == "semi":
            if current:
                out.append(current)
                current = []
            continue
        current.append(token)
    if current:
        last = current[-1]
        raise ParseError("statement is missing its terminating ';'", last.line, last.column)
    return out


def parse_pgsolver(text: str) -> ParityGame:
    """Parse PGSolver text into a validated game.

    Syntax errors report line and column; semantic errors name the
    offending node id (duplicates, dangling successors, no successors).
    """
    tokens = _scan(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    statements = _statements(tokens)
    if statements and statements[0][0].kind == "word":
        head = statements[0]
        if head[0].value != "parity":
            raise ParseError(f"unknown keyword {head[0].value!r}", head[0].line, head[0].column)
        if len(head) != 2 or head[1].kind != "nat":
            tok = head[min(1, len(head) - 1)]
            raise ParseError("header must be 'parity <max-id>;'", tok.line, tok.column)
        statements = statements[1:]
    if not statements:
        raise ParseError("no node statements", 1, 1)

    records: list[tuple[int, int, int, str | None]] = []
    edges: dict[int, tuple[int, ...]] = {}
    seen: dict[int, _Token] = {}
    for stmt in statements:
        def expect(pos: int, kind: str, what: str) -> _Token:
            if pos >= len(stmt):
                last = stmt[-1]
                raise ParseError(f"expected {what}", last.line, last.column + len(last.value))
            token = stmt[pos]
            if token.kind != kind:
                raise ParseError(f"expected {what}, found {token.value!r}", token.line, token.column)
            return token

        id_tok = expect(0, "nat", "node id")
        node_id = int(id_tok.value)
        if node_id in seen:
            raise ParseError(f"duplicate node id {node_id}", id_tok.line, id_tok.column)
        seen[node_id] = id_tok
        priority = int(expect(1, "nat", "priority").value)
        owner_tok = expect(2, "nat", "owner (0 or 1)")
        if owner_tok.value not in ("0", "1"):
            raise ParseError(
                f"owner must be 0 or 1, found {owner_tok.value!r}", owner_tok.line, owner_tok.column
            )
        succs = [int(expect(3, "nat", "successor id").value)]
        pos = 4
        while pos < len(stmt) and stmt[pos].kind == "comma":
            succs.append(int(expect(pos + 1, "nat", "successor id").value))
            pos += 2
        label: str | None = None
        if pos < len(stmt) and stmt[pos].kind == "string":
            label = stmt[pos].value
            pos += 1
        if pos != len(stmt):
            extra = stmt[pos]
            raise ParseError(f"unexpected token {extra.value!r}", extra.line, extra.column)
        records.append((node_id, int(owner_tok.value), priority, label))
        edges[node_id] = tuple(succs)

    known = set(seen)
    for node_id, succs in edges.items():
        for w in succs:
            if w not in known:
                tok = seen[node_id]
                raise ParseError(
                    f"node {node_id} lists successor {w} which is not a node",
                    tok.line,
                    tok.column,
                )
    game = ParityGame(*zip(*records), list(edges.values()))
    game = ParityGame(*zip(*records), list(edges.values()), sink=infer_sink(game))
    violations = validate_game(game)
    if violations:
        raise ParseError("; ".join(str(v) for v in violations), 1, 1)
    return game
