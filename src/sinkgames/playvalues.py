"""Play values: priority-count vectors with -inf/+inf sentinels, and their
order-preserving integer codes.

A finite play value counts how often each priority occurs on a path to the
sink. Values are compared from the highest differing priority downward: more
of an even priority is better for player 0, more of an odd priority is worse.
The sentinels bound the order from below and above. The library compares
only codes (``ValueCodec``), whose integer order is this order, and decodes
them to ``PlayValue`` at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class PlayValue:
    """One play outcome: -inf, +inf, or a sparse priority-count vector.

    ``sign`` is -1 / 0 / +1 for negative infinity / finite / positive
    infinity. Finite values store ``counts`` as (priority, count) pairs in
    descending priority order, with strictly positive counts only.
    """

    sign: int
    counts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"invalid sign {self.sign!r}")
        if self.sign != 0 and self.counts:
            raise ValueError("infinite play values carry no counts")
        prev = None
        for q, c in self.counts:
            if c <= 0:
                raise ValueError(f"count for priority {q} must be positive")
            if prev is not None and q >= prev:
                raise ValueError("counts must be in strictly descending priority order")
            prev = q

    @staticmethod
    def finite(counts: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "PlayValue":
        items = counts.items() if isinstance(counts, Mapping) else counts
        cleaned = tuple(sorted(((q, c) for q, c in items if c != 0), reverse=True))
        return PlayValue(0, cleaned)

    @staticmethod
    def empty() -> "PlayValue":
        return PlayValue(0, ())

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def count(self, priority: int) -> int:
        for q, c in self.counts:
            if q == priority:
                return c
            if q < priority:
                break
        return 0

    def __repr__(self) -> str:
        if self.sign < 0:
            return "PlayValue(-inf)"
        if self.sign > 0:
            return "PlayValue(+inf)"
        body = ", ".join(f"{q}:{c}" for q, c in self.counts)
        return f"PlayValue({{{body}}})"


NEG_INF = PlayValue(-1)
POS_INF = PlayValue(1)


class ValueCodec:
    """Order-preserving integer encoding of one game's play values, sized by
    its priority column, one entry per node.

    Priority q of rank r (ascending) weighs +/-base ** r, positive for even
    q, with base = 2n + 8 for n nodes; ``pos_code``/``neg_code`` =
    +/-base ** (P + 1), P priorities, encode the sentinels. A sum over a
    simple path or cycle counts each priority at most n < base/2 times, so on
    such values integer order is play-value order, the digits below a rank
    weigh less than half of its weight, a simple cycle's weight is nonzero
    with its top priority's sign, and codes lie within ``finite_bound`` =
    2 * base ** P. The sentinel plus at most n * max(n, 2) weights of at most
    base ** (P - 1) each stays beyond that bound, as base^2 - n * max(n, 2)
    > 2 * base.
    """

    __slots__ = ("priorities", "base", "_weights", "pos_code", "neg_code", "finite_bound")

    def __init__(self, priorities: Sequence[int]):
        self.priorities = tuple(sorted(set(priorities)))
        self.base = 2 * len(priorities) + 8
        self._weights = {}
        # each power from the one below it: base ** r afresh for every rank
        # is quadratic big-integer work in the priority count
        w = 1
        for q in self.priorities:
            self._weights[q] = w if q % 2 == 0 else -w
            w *= self.base
        self.finite_bound = 2 * w
        self.pos_code = w * self.base
        self.neg_code = -self.pos_code

    def weight(self, priority: int) -> int:
        return self._weights[priority]

    def encode(self, value: PlayValue) -> int:
        if value.sign > 0:
            return self.pos_code
        if value.sign < 0:
            return self.neg_code
        total = 0
        for q, c in value.counts:
            total += self._weights[q] * c
        return total

    def decode(self, code: int) -> PlayValue:
        if code == self.pos_code:
            return POS_INF
        if code == self.neg_code:
            return NEG_INF
        counts = []
        rest = code
        for q in reversed(self.priorities):
            w = abs(self._weights[q])
            c, rem = divmod(rest, w)
            # lower-rank terms sum to less than w // 2 in absolute value,
            # so rounding to the nearest multiple of w recovers the digit
            if 2 * rem > w:
                c += 1
                rem -= w
            rest = rem
            if q % 2 == 1:
                c = -c
            if c:
                counts.append((q, c))
        if rest != 0:
            raise ValueError(f"code {code} is not a valid encoding")
        for q, c in counts:
            if c < 0:
                raise ValueError(f"code {code} decodes to a negative count at priority {q}")
        return PlayValue(0, tuple(counts))
