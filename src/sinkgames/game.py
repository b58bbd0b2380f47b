"""Game graphs, positional strategies and validation.

A game is built from parallel columns and keeps them as owner, priority,
label and successor lists in ascending id order, with one dict from node id
to list position. Games are immutable after construction and all operations
here are pure, so shared instances are safe to use concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

PLAYER0 = 0
PLAYER1 = 1

Columns = tuple[list[int], list[int], list[int], list[str | None], list[tuple[int, ...]]]


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken structural rule, naming the offending node or edge."""

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


class ParityGame:
    """Directed game graph with an owner partition and priority labels.

    Node ids are distinct nonnegative integers (generated games use dense ids 0..n-1;
    parsed files may have gaps). Adjacency lists preserve declaration order. Construction
    is permissive about game-theoretic invariants so that :func:`validate_game` can report
    them. ``_index`` caches the derived ``GameIndex``; a race between threads at worst
    builds it twice. The index shares ``_ids``, ``_pos`` and ``_owners``, and ``_rows``
    too when the ids are 0..n-1 and each row lists distinct int node ids; it reads the
    other columns in place, also when it builds a player's arrays on first use, so none
    of them may ever change.
    """

    __slots__ = ("_ids", "_pos", "_owners", "_priorities", "_labels", "_rows", "sink", "_index")

    def __init__(
        self,
        ids: Sequence[int],
        owners: Sequence[int],
        priorities: Sequence[int],
        labels: Sequence[str | None],
        successors: Sequence[Sequence[int]],
        sink: int | None = None,
    ):
        """The game of parallel columns, one entry per node, in any id order;
        the game copies what it keeps. Each check runs over a whole column,
        and a failed one rescans in node order to name the first offender."""
        if not len(ids) == len(owners) == len(priorities) == len(labels) == len(successors):
            raise ValueError("columns differ in length")
        pos = dict(zip(ids, range(len(ids))))
        # True and 1.0 equal 1, so an owner's type is checked apart from its value
        if (
            len(pos) < len(ids)
            or ids and min(ids) < 0
            or not set(owners) <= {PLAYER0, PLAYER1}
            or not set(map(type, owners)) <= {int}
        ):
            seen = set()
            for v, who in zip(ids, owners):
                if v < 0:
                    raise ValueError(f"node id {v} is negative")
                if v in seen:
                    raise ValueError(f"duplicate node id {v}")
                if type(who) is not int or who not in (PLAYER0, PLAYER1):
                    raise ValueError(f"node {v} has invalid owner {who!r}")
                seen.add(v)
        if sink is not None and sink not in pos:
            raise ValueError(f"sink {sink} is not a node")
        columns = [list(owners), list(priorities), list(labels), list(map(tuple, successors))]
        order = sorted(ids)
        if order != list(ids):  # every column is kept in ascending id order
            columns = [[column[pos[v]] for v in order] for column in columns]
            pos = dict(zip(order, range(len(order))))
        self._ids = tuple(order)
        self._pos = pos
        self._owners, self._priorities, self._labels, self._rows = columns
        self.sink = sink
        self._index = None  # filled by sinkgames.valuation.game_index

    @property
    def node_ids(self) -> tuple[int, ...]:
        return self._ids

    def columns(self) -> Columns:
        """Fresh lists in ascending id order: ids, owners, priorities,
        labels and successor tuples."""
        columns = (self._ids, self._owners, self._priorities, self._labels, self._rows)
        return tuple(map(list, columns))

    def owner(self, v: int) -> int:
        return self._owners[self._pos[v]]

    def priority(self, v: int) -> int:
        return self._priorities[self._pos[v]]

    def label(self, v: int) -> str | None:
        return self._labels[self._pos[v]]

    def successors(self, v: int) -> tuple[int, ...]:
        return self._rows[self._pos[v]]

    def nodes_of(self, player: int) -> tuple[int, ...]:
        return tuple([v for v, owner in zip(self._ids, self._owners) if owner == player])

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._rows))

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParityGame):
            return NotImplemented
        return self.sink == other.sink and self.columns() == other.columns()

    def __repr__(self) -> str:
        return f"ParityGame(nodes={self.num_nodes}, edges={self.num_edges}, sink={self.sink})"


@dataclass(frozen=True)
class Strategy:
    """A positional choice map: one chosen successor per owned node."""

    player: int
    choice: dict[int, int] = field(default_factory=dict)

    def rewired(self, edges: Iterable[tuple[int, int]]) -> "Strategy":
        """New strategy with the given (node, successor) choices replaced."""
        updated = dict(self.choice)
        for v, w in edges:
            if v not in updated:
                raise ValueError(f"node {v} is not covered by this strategy")
            updated[v] = w
        return Strategy(self.player, updated)


def check_strategy(game: ParityGame, strategy: Strategy) -> None:
    """Raise ValueError unless the strategy's player is the int 0 or 1, it is
    total on that player's nodes and every choice follows an existing edge."""
    player, choice = strategy.player, strategy.choice
    if type(player) is not int or player not in (PLAYER0, PLAYER1):
        raise ValueError(f"strategy has invalid player {player!r}")
    pos, owners = game._pos, game._owners
    # the player's nodes the choice covers, counted in one pass: sets only name a fault
    covered = sum(owners[pos[v]] == player for v in choice if v in pos)
    if not len(choice) == covered == owners.count(player):
        owned = set(game.nodes_of(player))
        missing = sorted(owned - choice.keys())
        extra = sorted(choice.keys() - owned)
        parts = []
        if missing:
            parts.append(f"missing choices for nodes {missing}")
        if extra:
            parts.append(f"choices for non-owned nodes {extra}")
        raise ValueError(f"invalid player {player} strategy: " + "; ".join(parts))
    for v, w in choice.items():
        if w not in game._rows[pos[v]]:
            raise ValueError(f"strategy uses non-edge ({v}, {w})")


def validate_game(game: ParityGame, require_sink: bool = False) -> list[Violation]:
    """Report every broken structural invariant; empty list means valid.

    Checks outgoing-edge totality, edge targets, and the sink conditions
    (strictly minimal priority, self-loop only). With ``require_sink`` a
    missing sink designation is itself a violation.
    """
    report: list[Violation] = []
    for v, succs in zip(game._ids, game._rows):
        if not succs:
            report.append(Violation("node-successor", f"node {v}", "node without successor"))
        for w in succs:
            if w not in game:
                report.append(
                    Violation("edge-target", f"edge ({v}, {w})", f"successor {w} is not a node")
                )
    sink = game.sink
    if sink is None:
        if require_sink:
            report.append(Violation("sink-missing", "game", "no sink node designated"))
        return report
    p_sink = game.priority(sink)
    for v, q in zip(game._ids, game._priorities):
        if v != sink and q <= p_sink:
            message = f"priority {q} does not exceed sink priority {p_sink}"
            report.append(Violation("sink-priority", f"node {v}", message))
    if game.successors(sink) != (sink,):
        report.append(
            Violation("sink-self-loop", f"node {sink}", "sink self-loop only")
        )
    return report


def infer_sink(game: ParityGame) -> int | None:
    """The unique strictly-minimal-priority node whose only edge is its
    self-loop, or None if no such node exists."""
    return sink_of(game._ids, game._priorities, game._rows)


def sink_of(
    ids: Sequence[int], priorities: Sequence[int], successors: Sequence[Sequence[int]]
) -> int | None:
    """:func:`infer_sink` on the parallel columns of a game before it is built."""
    if not ids:
        return None
    low = min(priorities)
    if priorities.count(low) > 1:
        return None
    i = priorities.index(low)
    return ids[i] if tuple(successors[i]) == (ids[i],) else None
