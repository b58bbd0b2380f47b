"""Game graphs, positional strategies, validation, and strategy subgraphs.

Games are immutable after construction and all operations here are pure, so
shared instances are safe to use concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

PLAYER0 = 0
PLAYER1 = 1


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """A single game node: owner 0/1, integer priority, optional label."""

    id: int
    owner: int
    priority: int
    label: str | None = None


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

    Node ids are distinct nonnegative integers (generated games use dense
    ids 0..n-1; parsed files may have gaps). Adjacency lists preserve
    declaration order. Construction is permissive about game-theoretic
    invariants so that :func:`validate_game` can report them.
    """

    __slots__ = ("_records", "_edges", "sink", "_ids", "__weakref__")

    def __init__(
        self,
        nodes: Iterable[NodeRecord],
        edges: Mapping[int, Sequence[int]],
        sink: int | None = None,
    ):
        records: dict[int, NodeRecord] = {}
        for rec in nodes:
            if rec.id < 0:
                raise ValueError(f"node id {rec.id} is negative")
            if rec.id in records:
                raise ValueError(f"duplicate node id {rec.id}")
            if rec.owner not in (PLAYER0, PLAYER1):
                raise ValueError(f"node {rec.id} has invalid owner {rec.owner!r}")
            records[rec.id] = rec
        for u in edges:
            if u not in records:
                raise ValueError(f"edge source {u} is not a node")
        if sink is not None and sink not in records:
            raise ValueError(f"sink {sink} is not a node")
        self._ids = tuple(sorted(records))
        self._records = {v: records[v] for v in self._ids}
        self._edges = {v: tuple(edges.get(v, ())) for v in self._ids}
        self.sink = sink

    @property
    def node_ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def nodes(self) -> tuple[NodeRecord, ...]:
        return tuple(self._records.values())

    def node(self, v: int) -> NodeRecord:
        return self._records[v]

    def owner(self, v: int) -> int:
        return self._records[v].owner

    def priority(self, v: int) -> int:
        return self._records[v].priority

    def label(self, v: int) -> str | None:
        return self._records[v].label

    def successors(self, v: int) -> tuple[int, ...]:
        return self._edges[v]

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._edges and v in self._edges[u]

    def nodes_of(self, player: int) -> tuple[int, ...]:
        return tuple(v for v in self._ids if self._records[v].owner == player)

    def priorities(self) -> tuple[int, ...]:
        return tuple(sorted({rec.priority for rec in self._records.values()}))

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, w) for u in self._ids for w in self._edges[u])

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return sum(len(self._edges[v]) for v in self._ids)

    def __contains__(self, v: int) -> bool:
        return v in self._records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParityGame):
            return NotImplemented
        return (
            self._records == other._records
            and self._edges == other._edges
            and self.sink == other.sink
        )

    def __repr__(self) -> str:
        return f"ParityGame(nodes={self.num_nodes}, edges={self.num_edges}, sink={self.sink})"


@dataclass(frozen=True)
class Strategy:
    """A positional choice map: one chosen successor per owned node."""

    player: int
    choice: dict[int, int] = field(default_factory=dict)

    def target(self, v: int) -> int:
        return self.choice[v]

    def rewired(self, edges: Iterable[tuple[int, int]]) -> "Strategy":
        """New strategy with the given (node, successor) choices replaced."""
        updated = dict(self.choice)
        for v, w in edges:
            if v not in updated:
                raise ValueError(f"node {v} is not covered by this strategy")
            updated[v] = w
        return Strategy(self.player, updated)

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.choice.items())


def check_strategy(game: ParityGame, strategy: Strategy) -> None:
    """Raise ValueError unless the strategy is total on its player's nodes
    and every choice follows an existing edge."""
    owned = set(game.nodes_of(strategy.player))
    covered = set(strategy.choice)
    if covered != owned:
        missing = sorted(owned - covered)
        extra = sorted(covered - owned)
        parts = []
        if missing:
            parts.append(f"missing choices for nodes {missing}")
        if extra:
            parts.append(f"choices for non-owned nodes {extra}")
        raise ValueError(f"invalid player {strategy.player} strategy: " + "; ".join(parts))
    for v, w in strategy.choice.items():
        if w not in game.successors(v):
            raise ValueError(f"strategy uses non-edge ({v}, {w})")


@dataclass(frozen=True)
class StrategySubgraph:
    """The base game with the fixed player's moves pinned to their choices."""

    base: ParityGame
    fixed: Strategy

    def successors(self, v: int) -> tuple[int, ...]:
        if self.base.owner(v) == self.fixed.player:
            return (self.fixed.choice[v],)
        return self.base.successors(v)


def strategy_subgraph(game: ParityGame, strategy: Strategy) -> StrategySubgraph:
    """Restrict the fixed player's nodes to their chosen edge; the base game
    is shared, not copied."""
    check_strategy(game, strategy)
    return StrategySubgraph(game, strategy)


def validate_game(game: ParityGame, require_sink: bool = False) -> list[Violation]:
    """Report every broken structural invariant; empty list means valid.

    Checks outgoing-edge totality, edge targets, and the sink conditions
    (strictly minimal priority, self-loop only). With ``require_sink`` a
    missing sink designation is itself a violation.
    """
    report: list[Violation] = []
    for v in game.node_ids:
        succs = game.successors(v)
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
    for v in game.node_ids:
        if v != sink and game.priority(v) <= p_sink:
            report.append(
                Violation(
                    "sink-priority",
                    f"node {v}",
                    f"priority {game.priority(v)} does not exceed sink priority {p_sink}",
                )
            )
    if game.successors(sink) != (sink,):
        report.append(
            Violation("sink-self-loop", f"node {sink}", "sink self-loop only")
        )
    return report


def infer_sink(game: ParityGame) -> int | None:
    """The unique strictly-minimal-priority node whose only edge is its
    self-loop, or None if no such node exists."""
    return sink_of(game.nodes, game._edges)


def sink_of(nodes: Sequence[NodeRecord], edges: Mapping[int, Sequence[int]]) -> int | None:
    """:func:`infer_sink` on the parts of a game before it is built."""
    if not nodes:
        return None
    low = min(rec.priority for rec in nodes)
    lowest = [rec.id for rec in nodes if rec.priority == low]
    if len(lowest) > 1 or tuple(edges.get(lowest[0], ())) != (lowest[0],):
        return None
    return lowest[0]
