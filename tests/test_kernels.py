"""The table kernels against per-operation reference implementations.

The references below are the method-call forms of the transform kernel, the
tuple-keyed fill scheduler and extension loop, the power sums, the
certification's variety scan, the point interpolation of vanishing ideals,
the dense affine solve and the recurrence relation value: every field
operation goes through a counted Field method.  The library's kernels index
the field tables and charge their counts in bulk; they must give the same
arrays, the same fill steps (default and randomized), the same bases (down
to the insertion order of each polynomial's terms), the same failures and
the same (addsub, muldiv).
"""

import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avcodes.decoder import _variety, solve_affine
from avcodes.field import build_field, count_ops
from avcodes.groebner import (
    GroebnerBasis,
    check_point_set,
    footprint_of,
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


def ref_vanishing_ideal_gb(field, order, points):
    q = field.q
    pts = check_point_set(points, q, order.nvars)
    n = len(pts)
    rows = []
    footprint, polys, pivots = [], [], []
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
    if footprint_of(gb) != fp:
        raise ValueError("basis pivots do not cut out the interpolated footprint")
    return gb


def ref_solve_affine(field, rows, rhs, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = field.inv(aug[r][col])
        aug[r] = [field.mul(inv, x) for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(aug[i][ncols] != 0 for i in range(r, len(aug))):
        return None
    part = [0] * ncols
    for i, col in enumerate(pivots):
        part[col] = aug[i][ncols]
    null = []
    for fc in (c for c in range(ncols) if c not in set(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for i, col in enumerate(pivots):
            v[col] = field.neg(aug[i][fc])
        null.append(v)
    return part, null


def ref_relation_value(field, lookup, coeffs, pivot, at):
    acc = 0
    for s, c in coeffs.items():
        pos = tuple(a - t + e for a, t, e in zip(at, pivot, s))
        acc = field.add(acc, field.mul(c, lookup(pos)))
    return acc


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
            if vec_geq(a, piv) and ref_relation_value(field, lookup, g.terms, piv, a) != 0:
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


def shape(gb):
    """Everything the interpolation decides, term insertion order included."""
    return (
        gb.pivots,
        [list(g.terms.items()) for g in gb.polys],
        gb.footprint,
        gb.points,
    )


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
def orders(draw):
    """A random field and monomial order, with the box of its torus."""
    q, nvars = draw(st.sampled_from(SHAPES))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(nvars))
    tiebreak = tuple(
        draw(st.lists(st.tuples(st.integers(0, nvars - 1), st.sampled_from((-1, 1))), max_size=2))
    )
    return FIELDS[q](), MonomialOrder(weights, tiebreak), domain_points(q, nvars)


@st.composite
def bases(draw):
    """A random field, order and point set, with the point set's basis."""
    field, order, box = draw(orders())
    pts = draw(st.lists(st.sampled_from(box), min_size=1, max_size=8, unique=True))
    return vanishing_ideal_gb(field, order, pts)


@st.composite
def point_sets(draw):
    """A random field, order and point set: empty, one point, the whole
    torus (on boxes of at most 64 points) or up to 12 random points."""
    field, order, box = draw(orders())
    kind = draw(st.sampled_from(("empty", "single", "full", "random")))
    if kind == "empty":
        pts = []
    elif kind == "single":
        pts = [draw(st.sampled_from(box))]
    elif kind == "full" and len(box) <= 64:
        pts = box
    else:
        pts = draw(st.lists(st.sampled_from(box), min_size=1, max_size=12, unique=True))
    return field, order, pts


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
@given(st.data())
def test_default_fill_is_one_pass_in_monomial_order(data):
    # the invariant that lets the default fill skip scheduling: each operand
    # comes before its target, so the targets go in monomial order, each by
    # the lowest-index recurrence covering it, and no schedule ever stalls
    gb = data.draw(broken(data.draw(bases())))
    pts = box_layout(gb.q, gb.order.nvars).points
    rank = {pt: r for r, pt in enumerate(enumerate_order(gb.order, gb.q))}
    steps, why = collect(fill_steps(gb))
    targets = [rank[pts[a]] for a, _w, _idx in steps]
    assert targets == sorted(set(targets))
    for a, w, idx in steps:
        assert all(rank[pts[i]] < rank[pts[a]] for i in idx)
        assert w == min(v for v, piv in enumerate(gb.pivots) if vec_geq(pts[a], piv))
    if why is None:
        assert len(steps) + len(gb.footprint & set(rank)) == len(rank)
    k = data.draw(st.integers(0, 2**32 - 1))
    ends = [why, collect(fill_steps(gb, random.Random(k)))[1]]
    ends += [collect(ref_fill_steps(gb, rng))[1] for rng in (None, random.Random(k))]
    assert all(end is None or end.startswith("no recurrence covers exponent") for end in ends)


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


@PROPERTY
@given(point_sets())
def test_interpolation_matches_reference(case):
    field, order, pts = case
    got, got_ops = counted(vanishing_ideal_gb, field, order, pts)
    want, want_ops = counted(ref_vanishing_ideal_gb, field, order, pts)
    assert shape(got) == shape(want)
    assert got_ops == want_ops


@st.composite
def systems(draw):
    """A random field and linear system: `rank` random rows plus combinations
    of them (zero rows when rank is 0), with a consistent or a random rhs."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[q]()
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(0, 7))
    rank = draw(st.integers(0, nrows))
    elem = st.integers(0, q - 1) | st.just(0)
    vector = st.lists(elem, min_size=ncols, max_size=ncols)
    rows = [draw(vector) for _ in range(rank)]
    for _ in range(nrows - rank):
        row = [0] * ncols
        for b in rows[:rank]:
            c = draw(elem)
            row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
        rows.append(row)
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        x = draw(vector)
        rhs = [0] * nrows
        for i, row in enumerate(rows):
            for a, b in zip(row, x):
                rhs[i] = field.add(rhs[i], field.mul(a, b))
    else:
        rhs = [draw(elem) for _ in range(nrows)]
    give_ncols = not rows or draw(st.booleans())
    return field, rows, rhs, ncols if give_ncols else None


@PROPERTY
@given(systems())
def test_solve_affine_matches_reference(case):
    field, rows, rhs, ncols = case
    assert counted(solve_affine, field, rows, rhs, ncols) == counted(
        ref_solve_affine, field, rows, rhs, ncols
    )


def test_solve_affine_edge_systems_match_reference():
    f = FIELDS[7]()
    cases = [
        ([], [], 3),  # no equations: every unknown is free
        ([], [], 0),
        ([[0, 0]], [1], None),  # 0 = 1
        ([[1, 2], [2, 4]], [3, 5], None),  # dependent rows, inconsistent
        ([[1, 2], [2, 4]], [3, 6], None),  # dependent rows, consistent
        ([[0, 3, 1], [5, 0, 0]], [2, 4], None),
    ]
    for rows, rhs, ncols in cases:
        got = counted(solve_affine, f, rows, rhs, ncols)
        assert got == counted(ref_solve_affine, f, rows, rhs, ncols)
    assert counted(solve_affine, f, [[0, 0]], [1])[0] is None
    assert counted(solve_affine, f, [], [], 3)[0] == ([0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@PROPERTY
@given(bases(), st.integers(0, 2**32 - 1))
def test_relation_value_matches_reference(gb, k):
    rng = random.Random(k)
    box = domain_points(gb.q, gb.order.nvars)
    arr = {pt: rng.randrange(gb.q) for pt in box}

    def lookup(pos):
        return arr[vec_wrap(pos, gb.q - 1)]

    for g, piv in zip(gb.polys, gb.pivots):
        at = tuple(rng.randrange(t, gb.q - 1) for t in piv)
        got = counted(relation_value, gb.field, lookup, g.terms, piv, at)
        assert got == counted(ref_relation_value, gb.field, lookup, g.terms, piv, at)


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
