"""Vanishing ideals of points on the torus (F_q^x)^N and their Groebner bases.

Everything here works in the quotient F_q[x_1..x_N]/(x_i^(q-1) - 1): points
are tuples of coordinate dlogs, exponents live in the box [0, q-1)^N, and
monomial products wrap componentwise.  The reduced basis of a point set's
vanishing ideal is found by point interpolation: walk box monomials in
increasing order, Gauss-eliminate their evaluation vectors, and each first
dependence yields a basis element while the independents form the footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .field import Field
from .orders import MonomialOrder, enumerate_order, vec_geq, vec_sub, vec_wrap
from .poly import Poly, format_poly


def check_point_set(points, q: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Validate and canonicalize a set of torus points given by dlog tuples."""
    pts = []
    for pt in points:
        pt = tuple(pt)
        if len(pt) != nvars:
            raise ValueError(f"point {pt} has arity {len(pt)}, expected {nvars}")
        if any(not (0 <= c < q - 1) for c in pt):
            raise ValueError(f"point {pt} has a dlog outside [0, {q - 1})")
        pts.append(pt)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    return tuple(sorted(pts))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis in the cyclic quotient: monic pivots, tails on the footprint."""

    field: Field
    order: MonomialOrder
    q: int
    polys: tuple[Poly, ...]
    pivots: tuple[tuple[int, ...], ...]
    footprint: frozenset
    points: tuple[tuple[int, ...], ...] | None = None

    def describe(self, int_form: bool = False) -> list[str]:
        return [format_poly(g, self.order, int_form) for g in self.polys]


def footprint_from_pivots(pivots, q: int, nvars: int) -> frozenset:
    """Complement in the box of the union of the pivots' divisibility up-sets."""
    box = product(range(q - 1), repeat=nvars)
    return frozenset(m for m in box if not any(vec_geq(m, t) for t in pivots))


def minimal_generators(footprint, nvars: int) -> list[tuple[int, ...]]:
    """Minimal monomials of N_0^N outside a finite order ideal, sorted.

    Every one is an upper neighbour of the footprint (the origin when the
    footprint is empty) whose lower neighbours all lie in the footprint.
    """
    fp = set(map(tuple, footprint))
    if not fp:
        return [(0,) * nvars]
    above = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in fp for i in range(nvars)}
    return sorted(
        m
        for m in above - fp
        if all(
            m[i] == 0 or m[:i] + (m[i] - 1,) + m[i + 1 :] in fp for i in range(nvars)
        )
    )


def is_order_ideal(footprint, nvars: int) -> bool:
    fp = set(map(tuple, footprint))
    for m in fp:
        for i in range(nvars):
            if m[i] > 0 and m[:i] + (m[i] - 1,) + m[i + 1 :] not in fp:
                return False
    return True


def footprint_of(gb: GroebnerBasis) -> frozenset:
    """Recompute the footprint from the basis pivots (pivots must be an antichain)."""
    piv = gb.pivots
    for i, a in enumerate(piv):
        for b in piv[i + 1 :]:
            if vec_geq(a, b) or vec_geq(b, a):
                raise ValueError(f"pivots {a} and {b} divide one another")
    return footprint_from_pivots(piv, gb.q, gb.order.nvars)


def monomial_eval(field: Field, exps: tuple[int, ...], point: tuple[int, ...]) -> int:
    """x^exps at a torus point of coordinate dlogs (index math, not counted)."""
    return field.exp_alpha(sum(e * d for e, d in zip(exps, point)))


def vanishing_ideal_gb(field: Field, order: MonomialOrder, points) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal of polynomials vanishing on `points`.

    Returns the basis together with the footprint; the footprint size always
    equals the number of points (the evaluation map is an isomorphism onto
    functions on the point set).
    """
    q = field.q
    nvars = order.nvars
    pts = check_point_set(points, q, nvars)
    n = len(pts)

    rows = []  # (vector, expr, pivot_col); vector normalized to 1 at pivot_col
    footprint: list[tuple[int, ...]] = []
    polys: list[Poly] = []
    pivots: list[tuple[int, ...]] = []

    for m in enumerate_order(order, q):
        if any(vec_geq(m, t) for t in pivots):
            continue
        vec = [monomial_eval(field, m, pt) for pt in pts]
        expr = {m: field.one}
        for rvec, rexpr, col in rows:
            c = vec[col]
            if c == 0:
                continue
            vec = [field.sub(x, field.mul(c, y)) for x, y in zip(vec, rvec)]
            for e, k in rexpr.items():
                d = field.sub(expr.get(e, 0), field.mul(c, k))
                if d:
                    expr[e] = d
                else:
                    expr.pop(e, None)
        col = next((j for j, x in enumerate(vec) if x != 0), None)
        if col is None:
            polys.append(Poly(field, expr))
            pivots.append(m)
        else:
            scale = field.inv(vec[col])
            vec = [field.mul(x, scale) for x in vec]
            expr = {e: field.mul(k, scale) for e, k in expr.items()}
            rows.append((vec, expr, col))
            footprint.append(m)

    fp = frozenset(footprint)
    if len(fp) != n:
        raise ValueError(f"footprint size {len(fp)} != point count {n}")
    for g in polys:
        for pt in pts:
            if g.eval_at(pt) != 0:
                raise ValueError(f"basis element fails to vanish at {pt}")

    gb = GroebnerBasis(field, order, q, tuple(polys), tuple(pivots), fp, pts)
    assert footprint_of(gb) == fp
    return gb


def _divide(poly: Poly, order: MonomialOrder, q: int, by: list[tuple[tuple[int, ...], Poly]]) -> Poly:
    """Remainder of poly under the pivot/poly pairs, with cyclic wrapping."""
    r = poly
    while True:
        target = None
        for e in sorted(r.terms, key=order.key, reverse=True):
            hit = next((pair for pair in by if vec_geq(e, pair[0])), None)
            if hit is not None:
                target = (e, hit)
                break
        if target is None:
            return r
        e, (piv, g) = target
        c = r.terms[e]
        r = r.sub(g.shift(vec_sub(e, piv), wrap=q - 1).scale(c))


def wrap_poly(poly: Poly, q: int) -> Poly:
    """Canonicalize exponents into the box, merging any collisions."""
    field = poly.field
    out = Poly(field)
    for e, c in poly.terms.items():
        out = out.add(Poly(field, {vec_wrap(e, q - 1): c}))
    return out


def normal_form(poly: Poly, gb: GroebnerBasis) -> Poly:
    """Unique footprint-supported representative of poly modulo the ideal."""
    pairs = list(zip(gb.pivots, gb.polys))
    return _divide(wrap_poly(poly, gb.q), gb.order, gb.q, pairs)


def reduce_basis(field: Field, order: MonomialOrder, q: int, polys) -> list[Poly]:
    """Interreduce basis elements: monic pivots, tails reduced by the others.

    Input polys may carry out-of-box exponents (recurrence bookkeeping runs in
    the free regime); they are wrapped first, and elements that wrap to zero
    are dropped as quotient-trivial.
    """
    wrapped = []
    for g in polys:
        w = wrap_poly(g, q)
        if not w.is_zero():
            wrapped.append(w.monic(order))
    wrapped.sort(key=lambda g: order.key(g.leading_monomial(order)))
    # drop elements whose pivot is a multiple of an earlier pivot
    kept: list[Poly] = []
    for g in wrapped:
        lm = g.leading_monomial(order)
        if any(vec_geq(lm, k.leading_monomial(order)) for k in kept):
            continue
        kept.append(g)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(kept):
            others = [
                (h.leading_monomial(order), h) for j, h in enumerate(kept) if j != i
            ]
            r = _divide(g, order, q, others)
            if r.terms != g.terms:
                kept[i] = r.monic(order)
                changed = True
    return kept
