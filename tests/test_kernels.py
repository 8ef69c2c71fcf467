"""The table kernels against per-operation reference implementations.

The references below are the method-call forms of the transform kernel, the
tuple-keyed fill scheduler and extension loop, the power sums and the
certification's variety scan: every field operation goes through a counted
Field method.  The library's kernels index the field tables and charge
their counts in bulk; they must give the same arrays, the same fill steps
(default and randomized), the same failures and the same (addsub, muldiv).
"""

import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avcodes.decoder import _variety
from avcodes.field import build_field, count_ops
from avcodes.groebner import (
    GroebnerBasis,
    monomial_columns,
    monomial_eval,
    vanishing_ideal_gb,
)
from avcodes.orders import MonomialOrder, enumerate_order, vec_add, vec_geq, vec_sub, vec_wrap
from avcodes.poly import Poly
from avcodes.recurrence import (
    ExtensionError,
    c_inverse,
    extend,
    fill_steps,
    relation_value,
)
from avcodes.transform import box_layout, dft, direct_kernel, domain_points, idft

# -- references: one counted Field call per operation


def ref_kernel(field, line, inverse):
    n = len(line)
    sign = -1 if inverse else 1
    out = []
    for a in range(n):
        acc = 0
        for i, v in enumerate(line):
            acc = field.add(acc, field.mul(v, field.exp_alpha(sign * i * a)))
        out.append(acc)
    return out


def ref_axis_passes(field, arr, nvars, inverse, kernel):
    q1 = field.q - 1
    pts = domain_points(field.q, nvars)
    data = {pt: arr.get(pt, 0) for pt in pts}
    for axis in range(nvars):
        new = {}
        for rest in product(range(q1), repeat=nvars - 1):
            line = [data[rest[:axis] + (i,) + rest[axis:]] for i in range(q1)]
            line = kernel(field, line, inverse)
            if inverse:
                line = [field.neg(v) for v in line]
            for i, v in enumerate(line):
                new[rest[:axis] + (i,) + rest[axis:]] = v
        data = new
    return data


def ref_fill_steps(gb, rng=None):
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


def ref_extend(gb, seed, rng=None):
    field = gb.field
    tails = [[c for s, c in g.terms.items() if s != piv] for g, piv in zip(gb.polys, gb.pivots)]
    arr = dict(seed)
    for a, w, idx in ref_fill_steps(gb, rng):
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


def ref_c_inverse(field, c_psi, exps):
    out = {}
    for s in exps:
        s = tuple(s)
        acc = 0
        for pt, v in sorted(c_psi.items()):
            acc = field.add(acc, field.mul(v, monomial_eval(field, s, pt)))
        out[s] = acc
    return out


def ref_variety(field, polys, points):
    polys = [Poly(field, terms) for terms in polys]
    return [pt for pt in points if all(g.eval_at(pt) == 0 for g in polys)]


# -- helpers


def counted(fn, *args, **kwargs):
    """(result or the ExtensionError message, (addsub, muldiv)) of one call."""
    with count_ops() as c:
        try:
            out = fn(*args, **kwargs)
        except ExtensionError as ex:
            out = ("ExtensionError", str(ex))
    return out, (c.addsub, c.muldiv)


def as_tuples(gb, steps):
    pts = box_layout(gb.q, gb.order.nvars).points
    return [(pts[a], w, tuple(pts[i] for i in idx)) for a, w, idx in steps]


def collect(steps):
    """The steps of a fill up to its end or its ExtensionError message."""
    out = []
    try:
        for step in steps:
            out.append(step)
    except ExtensionError as ex:
        return out, str(ex)
    return out, None


# GF(16) stops at N = 2: its N = 3 box has 3375 cells, too many for the
# reference scheduler's rescans inside a property test
FIELDS = {
    5: lambda: build_field(5),
    7: lambda: build_field(7),
    8: lambda: build_field(2, 3),
    9: lambda: build_field(3, 2, modulus=(2, 1, 1), alpha=3),
    16: lambda: build_field(2, 4),
}
SHAPES = [(q, n) for q in FIELDS for n in (1, 2, 3) if (q - 1) ** n <= 512]


@st.composite
def bases(draw):
    """A random field, order and point set, with the point set's basis."""
    q, nvars = draw(st.sampled_from(SHAPES))
    field = FIELDS[q]()
    weights = tuple(draw(st.integers(1, 3)) for _ in range(nvars))
    tiebreak = tuple(
        draw(st.lists(st.tuples(st.integers(0, nvars - 1), st.sampled_from((-1, 1))), max_size=2))
    )
    order = MonomialOrder(weights, tiebreak)
    box = domain_points(q, nvars)
    pts = draw(st.lists(st.sampled_from(box), min_size=1, max_size=8, unique=True))
    return vanishing_ideal_gb(field, order, pts)


@st.composite
def broken(draw, gb):
    """gb, or gb with one tail coefficient changed or one element dropped."""
    kind = draw(st.sampled_from(("as is", "coefficient", "dropped")))
    polys = list(gb.polys)
    pivots = list(gb.pivots)
    if kind == "coefficient" and polys:
        w = draw(st.integers(0, len(polys) - 1))
        terms = dict(polys[w].terms)
        tail = sorted(s for s in terms if s != pivots[w])
        s = draw(st.sampled_from(tail)) if tail else pivots[w]
        terms[s] = (terms.get(s, 0) + draw(st.integers(1, gb.q - 1))) % gb.q
        polys[w] = Poly(gb.field, terms)
    elif kind == "dropped" and len(polys) > 1:
        w = draw(st.integers(0, len(polys) - 1))
        del polys[w], pivots[w]
    return GroebnerBasis(
        gb.field, gb.order, gb.q, tuple(polys), tuple(pivots), gb.footprint, gb.points
    )


PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY
@given(st.data())
def test_fill_and_extend_match_reference(data):
    gb = data.draw(broken(data.draw(bases())))
    k = data.draw(st.integers(0, 2**32 - 1))
    vals = random.Random(k)
    seed = {s: vals.randrange(gb.q) for s in gb.footprint}

    assert as_tuples(gb, collect(fill_steps(gb))[0]) == collect(ref_fill_steps(gb))[0]
    assert collect(fill_steps(gb))[1] == collect(ref_fill_steps(gb))[1]
    got = collect(fill_steps(gb, random.Random(k)))
    want = collect(ref_fill_steps(gb, random.Random(k)))
    assert (as_tuples(gb, got[0]), got[1]) == want

    assert counted(extend, gb, dict(seed)) == counted(ref_extend, gb, dict(seed))
    r1, r2 = random.Random(k + 1), random.Random(k + 1)
    assert counted(extend, gb, dict(seed), rng=r1) == counted(ref_extend, gb, dict(seed), rng=r2)
    assert r1.getstate() == r2.getstate()


@PROPERTY
@given(st.sampled_from(SHAPES), st.booleans(), st.integers(0, 2**32 - 1))
def test_transform_kernels_match_reference(shape, inverse, k):
    q, nvars = shape
    field = FIELDS[q]()
    rng = random.Random(k)
    arr = {pt: rng.randrange(q) if rng.random() < 0.6 else 0 for pt in domain_points(q, nvars)}
    line = [arr[pt] for pt in domain_points(q, nvars)[: q - 1]]
    assert counted(direct_kernel, field, line, inverse) == counted(ref_kernel, field, line, inverse)
    fast = idft if inverse else dft
    assert counted(fast, field, arr, nvars) == counted(
        ref_axis_passes, field, arr, nvars, inverse, ref_kernel
    )


@PROPERTY
@given(bases(), st.integers(0, 2**32 - 1))
def test_power_sums_and_variety_scan_match_reference(gb, k):
    rng = random.Random(k)
    field = gb.field
    box = domain_points(gb.q, gb.order.nvars)
    points = sorted(rng.sample(box, min(len(box), 12)))
    word = {pt: rng.randrange(gb.q) for pt in points}
    exps = [rng.choice(box) for _ in range(6)]
    assert counted(c_inverse, field, word, exps) == counted(ref_c_inverse, field, word, exps)

    # the basis polynomials vanish on gb.points; the others on some of them
    polys = [dict(g.terms) for g in gb.polys]
    polys += [{rng.choice(box): rng.randrange(1, gb.q) for _ in range(3)} for _ in range(2)]
    rng.shuffle(polys)
    points = sorted(set(points) | set(gb.points))
    cols = monomial_columns(field, {e for terms in polys for e in terms}, points)
    assert counted(_variety, field, polys, cols, points) == counted(
        ref_variety, field, polys, points
    )
    assert all(len(c) == len(points) for c in cols.values())
    assert all(v == monomial_eval(field, e, pt) for e, c in cols.items() for v, pt in zip(c, points))


def test_inconsistent_basis_fails_like_reference():
    # the two recurrences demand different values at (2, 1)
    from avcodes.groebner import footprint_from_pivots
    from avcodes.poly import parse_poly

    f = FIELDS[9]()
    order = MonomialOrder((3, 4), ((1, 1),))
    polys = (parse_poly(f, order, "2 + x^2"), parse_poly(f, order, "2*x^2 + x*y"))
    pivots = ((2, 0), (1, 1))
    fp = footprint_from_pivots(pivots, 9, 2)
    gb = GroebnerBasis(f, order, 9, polys, pivots, fp)
    seed = {s: 0 for s in fp}
    seed[(1, 0)], seed[(0, 1)] = 5, 3
    got = counted(extend, gb, dict(seed))
    assert got == counted(ref_extend, gb, dict(seed))
    assert got[0] == ("ExtensionError", "recurrence 1 violated at (2, 1)")


def test_uncovered_target_fails_after_the_same_steps():
    f = FIELDS[9]()
    order = MonomialOrder((3, 4), ((1, 1),))
    gb = vanishing_ideal_gb(f, order, [(1, 0), (0, 4), (6, 4), (2, 2)])
    cut = GroebnerBasis(f, order, 9, gb.polys[1:], gb.pivots[1:], gb.footprint)
    got, why = collect(fill_steps(cut))
    assert (as_tuples(cut, got), why) == collect(ref_fill_steps(cut))
    assert why.startswith("no recurrence covers exponent")
    seed = {s: 1 for s in cut.footprint}
    assert counted(extend, cut, seed) == counted(ref_extend, cut, seed)


@pytest.mark.parametrize("inverse", (False, True))
def test_kernel_seam_with_reference_kernel(inverse):
    f = FIELDS[16]()
    rng = random.Random(4)
    arr = {pt: rng.randrange(16) for pt in domain_points(16, 2)}
    fast = idft if inverse else dft
    assert counted(fast, f, arr, 2, kernel=ref_kernel) == counted(fast, f, arr, 2)
