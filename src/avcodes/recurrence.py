"""Linear recurrence extension and the torus/footprint transform pair.

A reduced Groebner basis with footprint S defines, for each pivot s_w, the
recurrence  k_a = -sum_s g_s^(w) k_(a+s-s_w)  with indices wrapped into the
box.  fill_steps() schedules, from the pivots and term supports alone, the
order in which these recurrences fill the exponent box A outside S, and
extend() applies it to grow seed values on S to all of A; composing with
the inverse transform and a restriction gives the isomorphism onto arrays
supported on the basis's point set (c_map), whose inverse is plain
power-sum evaluation (c_inverse).
"""

from __future__ import annotations

import random

from .field import Field
from .groebner import GroebnerBasis, monomial_eval
from .orders import enumerate_order, vec_add, vec_geq, vec_sub, vec_wrap
from .transform import Array, domain_points, idft, zero_array


class ExtensionError(ValueError):
    """The generated array violates one of the defining recurrences."""


def relation_value(field: Field, lookup, coeffs: dict, pivot: tuple[int, ...], at) -> int:
    """Value at `at` of the recurrence with these terms and pivot.

    That is sum_s c_s k_(at+s-pivot) over the array behind `lookup`; it is
    zero when the array satisfies the recurrence there.
    """
    acc = 0
    for s, c in coeffs.items():
        pos = tuple(a - t + e for a, t, e in zip(at, pivot, s))
        acc = field.add(acc, field.mul(c, lookup(pos)))
    return acc


def recurrence_tails(gb: GroebnerBasis) -> list[list[int]]:
    """Tail coefficients of each basis element, in fill_steps operand order."""
    return [
        [c for s, c in g.terms.items() if s != piv]
        for g, piv in zip(gb.polys, gb.pivots)
    ]


def fill_steps(gb: GroebnerBasis, rng: random.Random | None = None):
    """Yield the steps (target, recurrence index, operand indices) of a fill.

    Starting from the footprint, each step fills one box exponent a outside
    it by recurrence w, whose operands are the wrapped a + s - s_w over the
    tail terms s of g_w; every operand is filled before the step.  The steps
    depend only on the pivots and the term supports.  By default a step takes
    the least pending target in the monomial order that has a ready
    recurrence, and the lowest-index ready recurrence; with `rng` each round
    visits targets and recurrences in random order instead.  Raises
    ExtensionError, after the steps before it, when a visited target has no
    recurrence or no target is ready.
    """
    q1 = gb.q - 1
    known = set(gb.footprint)
    pending = [a for a in enumerate_order(gb.order, gb.q) if a not in known]

    def operands(a, w):
        g, piv = gb.polys[w], gb.pivots[w]
        return tuple(
            vec_wrap(vec_sub(vec_add(a, s), piv), q1) for s in g.terms if s != piv
        )

    while pending:
        picks = pending if rng is None else rng.sample(pending, len(pending))
        for a in picks:
            ws = [w for w, piv in enumerate(gb.pivots) if vec_geq(a, piv)]
            if not ws:
                raise ExtensionError(f"no recurrence covers exponent {a}")
            if rng is not None:
                rng.shuffle(ws)
            steps = ((a, w, operands(a, w)) for w in ws)
            step = next((st for st in steps if all(i in known for i in st[2])), None)
            if step is not None:
                break
        else:
            raise ExtensionError("generation stalled: no target has its operands")
        yield step
        known.add(a)
        pending.remove(a)


def extend(gb: GroebnerBasis, seed: dict, rng: random.Random | None = None) -> Array:
    """Fill the box from footprint seed values under all recurrences.

    The fill follows fill_steps (any admissible schedule, including the
    randomized one `rng` selects, yields the same array).  Every recurrence
    is re-verified over the whole box afterwards; a violation means the
    basis does not define a consistent extension.
    """
    field = gb.field
    if set(seed) != gb.footprint:
        raise ValueError("seed support must equal the basis footprint")
    tails = recurrence_tails(gb)
    arr: Array = dict(seed)
    for a, w, idx in fill_steps(gb, rng):
        acc = 0
        for c, i in zip(tails[w], idx):
            acc = field.add(acc, field.mul(c, arr[i]))
        arr[a] = field.neg(acc)

    def lookup(pos):
        return arr[vec_wrap(pos, gb.q - 1)]

    for w, (g, piv) in enumerate(zip(gb.polys, gb.pivots)):
        for a in domain_points(gb.q, gb.order.nvars):
            if vec_geq(a, piv) and relation_value(field, lookup, g.terms, piv, a) != 0:
                raise ExtensionError(f"recurrence {w} violated at {a}")
    return arr


def include(c_psi: dict, q: int, nvars: int) -> Array:
    """Embed a point-set array into the full torus array (zeros elsewhere)."""
    arr = zero_array(q, nvars)
    for pt, v in c_psi.items():
        if pt not in arr:
            raise ValueError(f"point {pt} outside the torus box")
        arr[pt] = v
    return arr


def restrict_a(arr: Array, exps) -> dict:
    return {tuple(e): arr[tuple(e)] for e in exps}


def c_map(gb: GroebnerBasis, seed: dict, onto) -> dict:
    """R . F^-1 . E: extend the seed, inverse-transform, restrict to `onto`.

    `onto` must contain the zero set of the basis ideal; the inverse
    transform of the extension vanishes off that zero set, which is checked
    against the complement of `onto` (a leak signals a basis/point-set
    mismatch).
    """
    field = gb.field
    nvars = gb.order.nvars
    full = idft(field, extend(gb, seed), nvars)
    onto_set = {tuple(pt) for pt in onto}
    for pt, v in full.items():
        if pt not in onto_set and v != 0:
            raise ValueError(f"transform leaks outside the target point set at {pt}")
    return {pt: full[pt] for pt in sorted(onto_set)}


def c_inverse(field: Field, c_psi: dict, exps) -> dict:
    """Power sums h_s = sum_psi c_psi psi^s over the given exponents."""
    out = {}
    for s in exps:
        s = tuple(s)
        acc = 0
        for pt, v in sorted(c_psi.items()):
            acc = field.add(acc, field.mul(v, monomial_eval(field, s, pt)))
        out[s] = acc
    return out


def ev(field: Field, h: dict, points) -> dict:
    """Evaluate the exponent-supported coefficient array at each point."""
    out = {}
    for pt in points:
        pt = tuple(pt)
        acc = 0
        for s, v in sorted(h.items()):
            acc = field.add(acc, field.mul(v, monomial_eval(field, s, pt)))
        out[pt] = acc
    return out
