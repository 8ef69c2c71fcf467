"""Linear recurrence extension and the torus/footprint transform pair.

A reduced Groebner basis with footprint S defines, for each pivot s_w, the
recurrence  k_a = -sum_s g_s^(w) k_(a+s-s_w)  with indices wrapped into the
box.  fill_steps() lists, from the pivots and term supports alone, the
steps that fill the exponent box A outside S in one pass in the monomial
order, and extend() applies them to grow seed values on S to all of A;
composing with the inverse transform and a restriction gives the
isomorphism onto arrays supported on the basis's point set (c_map), whose
inverse is plain power-sum evaluation (c_inverse).

The fill runs on flat box indices (the lex ranks of transform.box_layout).
The operand indices of every recurrence, worked out by integer arithmetic,
and the default steps form a plan built once per basis and kept on it
(GroebnerBasis.plans), so a code's own bases reuse theirs across encodes
and a locator's goes with the locator.  The kernels index the field tables
directly and charge their exact operation counts in bulk (Field.charge).
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left
from math import prod

from .field import Field
from .groebner import GroebnerBasis, monomial_columns, monomial_eval
from .orders import enumerate_order, vec_geq, vec_sub
from .transform import Array, box_layout, idft, zero_array


class ExtensionError(ValueError):
    """The generated array violates one of the defining recurrences."""


def relation_value(field: Field, lookup, coeffs: dict, pivot: tuple[int, ...], at) -> int:
    """Value at `at` of the recurrence with these terms and pivot.

    That is sum_s c_s k_(at+s-pivot) over the array behind `lookup`; it is
    zero when the array satisfies the recurrence there.
    """
    add, mul = field.tables[:2]
    shift = [a - t for a, t in zip(at, pivot)]
    acc = 0
    for s, c in coeffs.items():
        acc = add[acc][mul[c][lookup(tuple(map(operator.add, shift, s)))]]
    field.charge(len(coeffs), len(coeffs))
    return acc


def recurrence_tails(gb: GroebnerBasis) -> list[list[int]]:
    """Tail coefficients of each basis element, in fill_steps operand order."""
    return [
        [c for s, c in g.terms.items() if s != piv]
        for g, piv in zip(gb.polys, gb.pivots)
    ]


class _FillPlan:
    """Flat-index operand tables and default fill of one basis's recurrences.

    Recurrence w covers the box exponents a >= s_w; the operand of its term
    s at a is the wrapped a + s - s_w.  Coordinate k of a + s - s_w lies in
    [0, q-1 + max(s_k - s_w,k)), so in a padded box of those extents an
    operand's padded index is a's plus a per-term offset, and one table maps
    padded indices back to flat box indices.
    """

    def __init__(self, gb: GroebnerBasis):
        nvars, q1 = gb.order.nvars, gb.q - 1
        layout = box_layout(gb.q, nvars)
        self.points = layout.points
        self.index = layout.index
        self.pivots = gb.pivots
        deltas = [vec_sub(s, piv) for g, piv in zip(gb.polys, gb.pivots) for s in g.terms]
        ext = [q1 + max([0] + [d[k] for d in deltas]) for k in range(nvars)]
        pstride = [prod(ext[k + 1 :]) for k in range(nvars)]
        bstride = [q1 ** (nvars - 1 - k) for k in range(nvars)]
        self.wrap = [0]  # padded index -> flat index
        self.pad = [0]  # flat index -> padded index
        for k in range(nvars):
            self.wrap = [b + (x % q1) * bstride[k] for b in self.wrap for x in range(ext[k])]
            self.pad = [b + x * pstride[k] for b in self.pad for x in range(q1)]
        self.known = frozenset(self.index[s] for s in gb.footprint if s in self.index)
        # per recurrence: its covered flat indices in lex order with, for every
        # term (pivot included, in dict order), the coefficient and the column
        # of operand indices over them; and the padded offsets of its tail terms
        self.checks: list[tuple[list[int], list[tuple[int, list[int]]]]] = []
        self.tails: list[list[int]] = []
        owner: list[int | None] = [None] * len(self.points)  # least covering w
        for w, (g, piv) in enumerate(zip(gb.polys, gb.pivots)):
            flat = [0]
            for k in range(nvars):
                flat = [b + x * bstride[k] for b in flat for x in range(piv[k], q1)]
            pads = [self.pad[a] for a in flat]
            offs = {s: sum(d * st for d, st in zip(vec_sub(s, piv), pstride)) for s in g.terms}
            terms = [(c, [self.wrap[p + offs[s]] for p in pads]) for s, c in g.terms.items()]
            self.checks.append((flat, terms))
            self.tails.append([off for s, off in offs.items() if s != piv])
            for a in flat:
                if owner[a] is None:
                    owner[a] = w
        # the targets: box exponents outside the footprint, in monomial order
        self.targets = [
            i for i in map(self.index.__getitem__, enumerate_order(gb.order, gb.q))
            if i not in self.known
        ]
        # the default fill, up to the first target no recurrence covers
        self.steps: list[tuple[int, int, list[int]]] = []
        self.why = None  # message of the ExtensionError ending the steps
        for a in self.targets:
            w = owner[a]
            if w is None:
                self.why = f"no recurrence covers exponent {self.points[a]}"
                break
            self.steps.append((a, w, self.operands(a, w)))

    def cover(self, a: int) -> list[int]:
        """The recurrences covering flat index a, in index order."""
        pt = self.points[a]
        return [w for w, piv in enumerate(self.pivots) if vec_geq(pt, piv)]

    def operands(self, a: int, w: int) -> list[int]:
        p, wrap = self.pad[a], self.wrap
        return [wrap[p + off] for off in self.tails[w]]


def _plan(gb: GroebnerBasis) -> _FillPlan:
    plan = gb.plans.get("fill")
    if plan is None:
        plan = gb.plans["fill"] = _FillPlan(gb)
    return plan


def _first_ready(plan: _FillPlan, known, a: int, ws):
    """(w, operands) of the first recurrence in ws ready at a, or None."""
    for w in ws:
        ops = plan.operands(a, w)
        if all(map(known.__getitem__, ops)):
            return w, ops
    return None


def _random_steps(plan: _FillPlan, rng: random.Random):
    """The rng schedule behind fill_steps, on flat indices.

    Every round visits the pending targets, and at each one its covering
    recurrences, in random order, and takes the first ready one.  The least
    pending target is always ready, so every round ends in a step or at a
    target no recurrence covers.
    """
    targets = plan.targets
    known = bytearray(i in plan.known for i in range(len(plan.points)))
    pending = list(range(len(targets)))  # ranks
    for _ in targets:
        for r in rng.sample(pending, len(pending)):
            a = targets[r]
            ws = plan.cover(a)
            if not ws:
                raise ExtensionError(f"no recurrence covers exponent {plan.points[a]}")
            rng.shuffle(ws)
            step = _first_ready(plan, known, a, ws)
            if step is not None:
                break
        del pending[bisect_left(pending, r)]
        yield (a, *step)
        known[a] = 1


def fill_steps(gb: GroebnerBasis, rng: random.Random | None = None):
    """Yield the steps (target, recurrence index, operand indices) of a fill.

    Targets and operands are flat box indices (transform.box_layout).
    Starting from the footprint, each step fills one box exponent a outside
    it by recurrence w, whose operands are the wrapped a + s - s_w over the
    tail terms s of g_w.  The steps depend only on the pivots and the term
    supports.  By default the steps take the targets in monomial order, each
    by the lowest-index recurrence covering it; this list is worked out once
    per basis and replayed.  With `rng` each round visits targets and
    recurrences in random order and takes the first ready pair instead.
    Raises ExtensionError, after the steps before it, at a target no
    recurrence covers.

    Precondition: every tail term comes before its pivot in the monomial
    order, as in every basis the library builds (interpolated, certified or
    raw from the iteration).  Then every operand comes before its target and
    is filled first: a + s - s_w by translation invariance, and a wrapped
    operand by its smaller weight, since every weight is positive.
    """
    plan = _plan(gb)
    if rng is not None:
        yield from _random_steps(plan, rng)
        return
    yield from plan.steps
    if plan.why is not None:
        raise ExtensionError(plan.why)


def extend(gb: GroebnerBasis, seed: dict, rng: random.Random | None = None) -> Array:
    """Fill the box from footprint seed values under all recurrences.

    The fill follows fill_steps (any admissible schedule, including the
    randomized one `rng` selects, yields the same array).  Every recurrence
    is re-verified over the whole box afterwards, recurrence by recurrence
    and in lex order within each; a violation means the basis does not
    define a consistent extension.
    """
    field = gb.field
    if set(seed) != gb.footprint:
        raise ValueError("seed support must equal the basis footprint")
    plan = _plan(gb)
    add, mul, neg, _exp = field.tables
    arr = [0] * len(plan.points)
    for s, v in seed.items():
        if s in plan.index:
            arr[plan.index[s]] = v
    tails = [[mul[c] for c in tail] for tail in recurrence_tails(gb)]
    nterms = nsteps = 0
    try:
        for a, w, idx in fill_steps(gb, rng):
            acc = 0
            for mc, i in zip(tails[w], idx):
                acc = add[acc][mc[arr[i]]]
            arr[a] = neg[acc]
            nterms += len(idx)
            nsteps += 1
    finally:
        field.charge(nterms + nsteps, nterms)

    done = 0
    for w, (flat, terms) in enumerate(plan.checks):
        vals = [0] * len(flat)
        for c, col in terms:
            mc = mul[c]
            vals = [add[x][mc[arr[i]]] for x, i in zip(vals, col)]
        if any(vals):
            bad = next(r for r, v in enumerate(vals) if v)
            done += (bad + 1) * len(terms)
            field.charge(done, done)
            raise ExtensionError(f"recurrence {w} violated at {plan.points[flat[bad]]}")
        done += len(flat) * len(terms)
    field.charge(done, done)
    out = dict(zip(plan.points, arr))
    out.update(seed)  # footprint exponents outside the box stay as given
    return out


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
    pts = sorted(c_psi)
    exps = [tuple(s) for s in exps]
    cols = monomial_columns(field, exps, pts)
    add, mul = field.tables[:2]
    rows = [mul[c_psi[pt]] for pt in pts]
    out = {}
    for s in exps:
        acc = 0
        for mv, x in zip(rows, cols[s]):
            acc = add[acc][mv[x]]
        out[s] = acc
    field.charge(len(exps) * len(pts), len(exps) * len(pts))
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
