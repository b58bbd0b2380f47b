"""Reading and writing the PGSolver text format.

A file is an optional ``parity <max-id>;`` header followed by one
statement per node::

    <id> <priority> <owner> <succ>,<succ>,... ["<label>"];

Statements end with ``;`` and may share lines; spaces, tabs and line
breaks separate tokens. Numbers are runs of at most MAX_DIGITS (4,300) of
the ASCII digits ``0``-``9``; any other digit is an unexpected character.
Owners are 0 or 1 and priorities are nonnegative. With a header, no node id
may exceed its ``<max-id>``. A label runs to the next ``"`` on its line, so
it may contain ``;`` but not ``"`` or a line break. The writer refuses such
labels, negative priorities, longer numbers and a game without nodes, and
otherwise emits a canonical form (header, one node per line in ascending id
order) that parses back to the same in-memory game; the sink designation is
re-inferred on parse. :func:`pgsolver_lines` makes that form line by line,
for writing a large game without holding all of its text.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Iterator, NoReturn

from .game import ParityGame, sink_of

# The most digits of a number: the parser's own cap, so that every Python
# refuses the same files, set to the default int() limit of Python 3.11.
MAX_DIGITS = 4300
NUMBER_END = 10**MAX_DIGITS  # the least number with more digits
# int() refuses a run of more digits than sys.get_int_max_str_digits(),
# which a caller may lower as far as 640; runs of at most 640 it always reads
_SAFE_DIGITS = 640
_RUN_END = 10**_SAFE_DIGITS

# One node statement after any empty ones: id, priority, owner, successor
# list, optional label. Numbers that follow each other need a space between
# them; anything else may touch. A longer number fails the match, and
# _reject names it.
_NAT = f"[0-9]{{1,{MAX_DIGITS}}}"
_NODE = re.compile(
    rf'[ \t\r\n;]*({_NAT})[ \t\r\n]+({_NAT})[ \t\r\n]+([01])[ \t\r\n]+'
    rf'({_NAT}(?:[ \t\r\n]*,[ \t\r\n]*{_NAT})*)[ \t\r\n]*(?:"([^"\n]*)"[ \t\r\n]*)?;',
    re.ASCII,
)
_HEADER = re.compile(rf"[ \t\r\n;]*parity[ \t\r\n]+({_NAT})[ \t\r\n]*;", re.ASCII)
_BLANK = re.compile(r"[ \t\r\n;]*")
# Error path only. Words are Unicode (letter or "_", then str.isalnum or
# "_"), but only ASCII digits make a number.
_TOKEN = re.compile(
    r'[ \t\r\n]*(?:(?P<nat>[0-9]+)|(?P<word>\w+)|"(?P<string>[^"\n]*)"|(?P<open>")'
    r"|(?P<comma>,)|(?P<semi>;)|(?P<char>[^ \t\r\n]))"
)

Token = tuple[str, str, int, int]  # kind, value, start offset, end offset


def _int_in_runs(digits: str) -> int:
    # a successor id may keep the separators around its comma, which int()
    # skips but which must not count as digits of a run
    digits = digits.strip(" \t\r\n")
    n = 0
    for i in range(0, len(digits), _SAFE_DIGITS):
        run = digits[i : i + _SAFE_DIGITS]
        n = n * 10 ** len(run) + int(run)
    return n


def int_text(n: int) -> str:
    """``str(n)`` for a nonnegative n under any digit limit: the inverse of
    reading a number 640 digits at a time."""
    runs = []
    while n >= _RUN_END:
        n, run = divmod(n, _RUN_END)
        runs.append(f"{run:0{_SAFE_DIGITS}d}")
    return str(n) + "".join(reversed(runs))


def int_reader() -> Callable[[str], int]:
    """The conversion of a run of ASCII digits: ``int`` where the current
    digit limit admits MAX_DIGITS digits, else one that reads the run 640
    digits at a time, so that every number the format allows converts."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return int if limit == 0 or limit >= MAX_DIGITS else _int_in_runs


class ParseError(Exception):
    """Malformed input, with 1-based line and column of the offense."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _error(text: str, message: str, offset: int) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokens(text: str, start: int) -> list[Token]:
    """The tokens of ``text`` from ``start`` on; raises at the first
    character no token starts with, at an unterminated label and at a
    number of more than MAX_DIGITS digits."""
    tokens = []
    for m in _TOKEN.finditer(text, start):
        kind = m.lastgroup
        value = m[kind]
        at = m.start(kind)
        if kind == "open":
            raise _error(text, "unterminated label string", at)
        if kind == "char" or kind == "word" and not (value[0].isalpha() or value[0] == "_"):
            raise _error(text, f"unexpected character {text[at]!r}", at)
        if kind == "nat" and len(value) > MAX_DIGITS:
            raise _error(text, f"number has more than {MAX_DIGITS} digits", at)
        if kind == "string":
            at -= 1
        tokens.append((kind, value, at, m.end(kind)))
    return tokens


def _reject(
    text: str, start: int, seen: dict[int, int], max_id: int | None, first: bool
) -> NoReturn:
    """Raise the error of the statement at ``start``: the statement pattern
    refused it, or its id is a duplicate or above the header's maximum.

    Errors come in the order a tokenize-everything parser finds them: a bad
    character, an unterminated label, a number that is too long or an
    unterminated statement anywhere after ``start`` wins over a fault of
    this statement.
    """
    statements: list[list[Token]] = []
    current: list[Token] = []
    for token in _tokens(text, start):
        if token[0] != "semi":
            current.append(token)
        elif current:
            statements.append(current)
            current = []
    if current:
        raise _error(text, "statement is missing its terminating ';'", current[-1][2])
    stmt = statements[0]
    kind, value, at, _ = stmt[0]
    if first and kind == "word":
        if value != "parity":
            raise _error(text, f"unknown keyword {value!r}", at)
        raise _error(text, "header must be 'parity <max-id>;'", stmt[min(1, len(stmt) - 1)][2])

    def expect(pos: int, kind: str, what: str) -> Token:
        if pos >= len(stmt):
            raise _error(text, f"expected {what}", stmt[-1][3])
        token = stmt[pos]
        if token[0] != kind:
            raise _error(text, f"expected {what}, found {token[1]!r}", token[2])
        return token

    node_id = _int_in_runs(expect(0, "nat", "node id")[1])
    if node_id in seen:
        raise _error(text, f"duplicate node id {int_text(node_id)}", at)
    if max_id is not None and node_id > max_id:
        message = f"node id {int_text(node_id)} exceeds the header's maximum {int_text(max_id)}"
        raise _error(text, message, at)
    expect(1, "nat", "priority")
    owner = expect(2, "nat", "owner (0 or 1)")
    if owner[1] not in ("0", "1"):
        raise _error(text, f"owner must be 0 or 1, found {owner[1]!r}", owner[2])
    expect(3, "nat", "successor id")
    pos = 4
    while pos < len(stmt) and stmt[pos][0] == "comma":
        expect(pos + 1, "nat", "successor id")
        pos += 2
    if pos < len(stmt) and stmt[pos][0] == "string":
        pos += 1
    if pos < len(stmt):
        raise _error(text, f"unexpected token {stmt[pos][1]!r}", stmt[pos][2])
    raise AssertionError(f"the statement at offset {start} is well formed")


def parse_pgsolver(text: str) -> ParityGame:
    """Parse PGSolver text into a validated game.

    Syntax errors report line and column; semantic errors name the
    offending node id (duplicates, ids above the header's maximum,
    dangling successors).
    """
    to_int = int_reader()
    statements: list[tuple[str, ...]] = []  # priority, owner, successors, label
    seen: dict[int, int] = {}  # node id -> offset of the id, in file order
    header = _HEADER.match(text)
    max_id = to_int(header[1]) if header else None
    pos = header.end() if header else 0
    match = _NODE.match
    while (m := match(text, pos)) is not None:
        node_id = to_int(m[1])
        if node_id in seen or max_id is not None and node_id > max_id:
            break
        seen[node_id] = m.start(1)
        statements.append(m.groups()[1:])
        pos = m.end()
    if not _BLANK.fullmatch(text, pos):
        _reject(text, pos, seen, max_id, first=header is None and not seen)
    if not seen:
        raise ParseError("no node statements" if text.strip(" \t\r\n") else "empty input", 1, 1)
    ids = list(seen)
    priorities, owners, succs, labels = zip(*statements)
    rows = [tuple(map(to_int, row.split(","))) for row in succs]
    if not seen.keys() >= set().union(*rows):
        node_id, w = next((v, w) for v, row in zip(ids, rows) for w in row if w not in seen)
        message = f"node {int_text(node_id)} lists successor {int_text(w)} which is not a node"
        raise _error(text, message, seen[node_id])
    owners, priorities = list(map(int, owners)), list(map(to_int, priorities))
    sink = sink_of(ids, priorities, rows)
    return ParityGame(ids, owners, priorities, labels, rows, sink=sink)


def pgsolver_lines(game: ParityGame) -> Iterator[str]:
    """The lines of :func:`write_pgsolver`'s text, each with its line break,
    made one at a time. The game is checked in this call, so a game that
    has no such text raises ValueError before the first line is made."""
    ids, owners, priorities, labels, rows = game.columns()
    if not ids:
        raise ValueError("a game without nodes has no PGSolver text")
    if max(ids) >= NUMBER_END or max(priorities) >= NUMBER_END:
        raise ValueError(f"a node id or priority has more than {MAX_DIGITS} digits")
    # whole-column checks first; a failed one rescans to name the first node
    try:
        label_text = "".join(filter(None, labels))
    except TypeError:  # a label that is not a string
        label_text = None
    if min(priorities) < 0 or label_text is None or '"' in label_text or "\n" in label_text:
        for v, priority, label in zip(ids, priorities, labels):
            if priority < 0:
                message = f"node {v} has negative priority {priority}; shift priorities first"
            elif label and not isinstance(label, str):
                message = f"node {v} has label {label!r}; labels must be strings"
            elif label and ('"' in label or "\n" in label):
                message = f"node {v} has label {label!r}; labels cannot hold '\"' or a line break"
            else:
                continue
            raise ValueError(message)

    def lines() -> Iterator[str]:
        yield f"parity {max(ids)};\n"
        for v, owner, priority, label, row in zip(ids, owners, priorities, labels, rows):
            label = "" if label is None else f' "{label}"'
            yield f"{v} {priority} {owner} {','.join(map(str, row))}{label};\n"

    return lines()


def write_pgsolver(game: ParityGame) -> str:
    """Canonical text form: ascending node ids, adjacency order preserved,
    labels quoted. Priorities must be nonnegative, ids and priorities must
    have at most MAX_DIGITS digits, labels must be strings that hold
    neither ``"`` nor a line break, and the game must have a node, or the
    text would not parse back."""
    return "".join(pgsolver_lines(game))
