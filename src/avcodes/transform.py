"""Discrete Fourier transforms on the torus (F_q^x)^N.

Arrays over the torus (and over the exponent set A) are dicts keyed by dlog
tuples; both domains are the box [0, q-1)^N and share the canonical lex
ordering given by domain_points().  The forward transform sends a torus
array c to h_a = sum_w c_w w^a; the inverse multiplies by (-1)^N and uses
negated exponents.  The fast paths factor the transform one axis at a time
through a pluggable length-(q-1) kernel.  They run on one flat list in
domain_points order, whose flat index of a point is its lex rank, over the
lines of box_layout(); the default kernel indexes the field tables
directly and charges its exact operation count in one call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Callable, NamedTuple

from .field import Field

Array = dict[tuple[int, ...], int]
Kernel = Callable[[Field, list[int], bool], list[int]]

# (q, nvars) boxes and (field, direction) twiddle sets kept; each is small
_LAYOUTS = 16


def domain_points(q: int, nvars: int) -> list[tuple[int, ...]]:
    """Canonical (lex) ordering of the box, shared by torus points and exponents."""
    return list(product(range(q - 1), repeat=nvars))


class BoxLayout(NamedTuple):
    """Flat indexing of the box [0, q-1)^N in domain_points order."""

    points: tuple[tuple[int, ...], ...]  # flat index -> point
    index: MappingProxyType  # point -> flat index
    lines: tuple  # per axis, a slice of the flat list for each line along it


@lru_cache(maxsize=_LAYOUTS)
def box_layout(q: int, nvars: int) -> BoxLayout:
    q1 = q - 1
    points = tuple(product(range(q1), repeat=nvars))
    lines = []
    for axis in range(nvars):
        stride = q1 ** (nvars - 1 - axis)
        # line starts are the flat indices with a zero coordinate on `axis`
        starts = [i for i in range(len(points)) if (i // stride) % q1 == 0]
        lines.append(tuple(slice(b, b + q1 * stride, stride) for b in starts))
    index = MappingProxyType({pt: i for i, pt in enumerate(points)})
    return BoxLayout(points, index, tuple(lines))


def zero_array(q: int, nvars: int) -> Array:
    return {pt: 0 for pt in domain_points(q, nvars)}


def dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=_LAYOUTS)
def _twiddles(field: Field, inverse: bool) -> tuple[tuple[int, ...], ...]:
    """Row i holds alpha^(+-i*a) for a = 0..q-2."""
    q1 = field.q - 1
    sign = -1 if inverse else 1
    exp = field.tables[3]
    return tuple(tuple(exp[(sign * i * a) % q1] for a in range(q1)) for i in range(q1))


def direct_kernel(field: Field, line: list[int], inverse: bool) -> list[int]:
    """Schoolbook length-(q-1) transform over the twiddle table.

    out_a = sum_i line_i alpha^(+-i*a); every product and sum of the
    schoolbook is charged, including those of zero entries, which the
    loop skips since they leave the sums unchanged.
    """
    n = len(line)
    add, mul = field.tables[:2]
    out = [0] * n
    for v, row in zip(line, _twiddles(field, inverse)):
        if v:
            mv = mul[v]
            out = [add[x][mv[t]] for x, t in zip(out, row)]
    field.charge(n * n, n * n)
    return out


def dft_naive(field: Field, c: Array, nvars: int) -> Array:
    pts = domain_points(field.q, nvars)
    out = {}
    for a in pts:
        acc = 0
        for w in pts:
            acc = field.add(acc, field.mul(c.get(w, 0), field.exp_alpha(dot(w, a))))
        out[a] = acc
    return out


def idft_naive(field: Field, h: Array, nvars: int) -> Array:
    pts = domain_points(field.q, nvars)
    out = {}
    for w in pts:
        acc = 0
        for a in pts:
            acc = field.add(acc, field.mul(h.get(a, 0), field.exp_alpha(-dot(w, a))))
        if nvars % 2:
            acc = field.neg(acc)
        out[w] = acc
    return out


def _axis_passes(field: Field, arr: Array, nvars: int, inverse: bool, kernel: Kernel) -> Array:
    layout = box_layout(field.q, nvars)
    data = [arr.get(pt, 0) for pt in layout.points]
    neg = field.tables[2]
    for lines in layout.lines:
        for line in lines:
            out = kernel(field, data[line], inverse)
            if inverse:
                out = [neg[v] for v in out]  # one -1 factor per axis
            data[line] = out
        if inverse:
            field.charge(len(data), 0)
    return dict(zip(layout.points, data))


def dft(field: Field, c: Array, nvars: int, fast: bool = True, kernel: Kernel | None = None) -> Array:
    """h_a = sum over torus points w of c_w * w^a."""
    if not fast:
        return dft_naive(field, c, nvars)
    return _axis_passes(field, c, nvars, False, kernel or direct_kernel)


def idft(field: Field, h: Array, nvars: int, fast: bool = True, kernel: Kernel | None = None) -> Array:
    """c_w = (-1)^N * sum over exponents a of h_a * w^(-a); inverse of dft."""
    if not fast:
        return idft_naive(field, h, nvars)
    return _axis_passes(field, h, nvars, True, kernel or direct_kernel)


def eval_poly_vector(
    field: Field,
    h: Array,
    nvars: int,
    at: tuple[int, ...] | None = None,
):
    """Plain polynomial evaluation of the coefficient array h.

    With `at` a point (dlog tuple): returns sum_a h_a * point^a.  With
    at=None: returns the full torus vector (h evaluated at the inverse of
    each point), the classical substitution convention; unlike idft there
    is no (-1)^N factor.
    """
    terms = sorted((a, v) for a, v in h.items() if v != 0)
    if at is not None:
        acc = 0
        for a, v in terms:
            acc = field.add(acc, field.mul(v, field.exp_alpha(dot(a, at))))
        return acc
    out = {}
    for w in domain_points(field.q, nvars):
        acc = 0
        for a, v in terms:
            acc = field.add(acc, field.mul(v, field.exp_alpha(-dot(a, w))))
        out[w] = acc
    return out
