"""Weighted monomial orders on exponent vectors.

Exponent vectors are plain int tuples.  They appear in two regimes: free
(N_0^N, used while dividing and during recurrence bookkeeping) and cyclic
(componentwise mod q-1, the index set A of the transform domain).  The
order compares by total weight first, then by the configured tie-break
axes, then lexicographically, so it is always total and translation
invariant, with the zero vector minimal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class MonomialOrder:
    """Graded order: positive weights, then (axis, direction) tie-breaks."""

    weights: tuple[int, ...]
    tiebreak: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not self.weights or any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        for axis, direction in self.tiebreak:
            if not (0 <= axis < len(self.weights)) or direction not in (-1, 1):
                raise ValueError(f"bad tie-break entry ({axis}, {direction})")

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def weight(self, v: tuple[int, ...]) -> int:
        return sum(w * x for w, x in zip(self.weights, v))

    def key(self, v: tuple[int, ...]):
        return (
            self.weight(v),
            tuple(d * v[a] for a, d in self.tiebreak),
            v,
        )

    def compare(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ


def vec_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))

def vec_geq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise a >= b, i.e. x^b divides x^a in the free regime."""
    return all(x >= y for x, y in zip(a, b))


def vec_wrap(a: tuple[int, ...], period: int) -> tuple[int, ...]:
    """Canonical representative in the cyclic regime."""
    return tuple(x % period for x in a)


# sorted boxes kept: a decode touches one order and one q, a test run a few dozen
_SORTED_BOXES = 32


@lru_cache(maxsize=_SORTED_BOXES)
def _sorted_box(order: MonomialOrder, q: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(product(range(q - 1), repeat=order.nvars), key=order.key))


def enumerate_order(order: MonomialOrder, q: int, limit: int | None = None):
    """Exponent vectors of A = [0, q-1)^N in increasing order."""
    pts = _sorted_box(order, q)
    if limit is not None:
        pts = pts[:limit]
    yield from pts


def n0_prefix(order: MonomialOrder, count: int) -> list[tuple[int, ...]]:
    """The first `count` vectors of N_0^N in increasing order."""
    n = order.nvars
    start = (0,) * n
    heap = [(order.key(start), start)]
    seen = {start}
    out: list[tuple[int, ...]] = []
    while heap and len(out) < count:
        _, v = heapq.heappop(heap)
        out.append(v)
        for i in range(n):
            w = v[:i] + (v[i] + 1,) + v[i + 1 :]
            if w not in seen:
                seen.add(w)
                heapq.heappush(heap, (order.key(w), w))
    return out
