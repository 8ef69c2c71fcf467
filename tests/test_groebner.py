import random

import pytest

from avcodes.field import build_field
from avcodes.groebner import (
    check_point_set,
    footprint_from_pivots,
    footprint_of,
    is_order_ideal,
    minimal_generators,
    normal_form,
    reduce_basis,
    vanishing_ideal_gb,
    wrap_poly,
)
from avcodes.orders import MonomialOrder
from avcodes.poly import Poly, parse_poly

HERM = MonomialOrder((3, 4), ((1, 1),))
PLAIN = MonomialOrder((1,))


def gf9():
    return build_field(3, 2, modulus=(2, 1, 1), alpha=3)


def curve_points(f):
    """All torus points (x, y) with x^4 = y^3 + y, as dlog pairs."""
    pts = []
    for i in range(8):
        for j in range(8):
            lhs = f.pow(f.exp_alpha(i), 4)
            rhs = f.add(f.pow(f.exp_alpha(j), 3), f.exp_alpha(j))
            if lhs == rhs:
                pts.append((i, j))
    return pts


NINE_POINTS = [(1, 0), (1, 1), (1, 3), (3, 0), (3, 1), (3, 3), (5, 0), (5, 1), (7, 0)]


def test_point_set_validation():
    assert check_point_set([(0,), (3,)], 11, 1) == ((0,), (3,))
    with pytest.raises(ValueError):
        check_point_set([(0, 1)], 11, 1)
    with pytest.raises(ValueError):
        check_point_set([(10,)], 11, 1)
    with pytest.raises(ValueError):
        check_point_set([(1,), (1,)], 11, 1)


def test_footprint_helpers():
    fp = footprint_from_pivots([(2, 0), (1, 1), (0, 2)], 9, 2)
    assert fp == {(0, 0), (1, 0), (0, 1)}
    assert minimal_generators(fp, 2) == [(0, 2), (1, 1), (2, 0)]
    assert is_order_ideal(fp, 2)
    assert not is_order_ideal({(1, 0), (2, 0)}, 2)


def test_vanishing_ideal_single_point():
    f = gf9()
    gb = vanishing_ideal_gb(f, HERM, [(0, 0)])
    assert gb.footprint == {(0, 0)}
    assert gb.pivots == ((1, 0), (0, 1))
    assert gb.polys[0] == parse_poly(f, HERM, "2 + x")
    assert gb.polys[1] == parse_poly(f, HERM, "2 + y")


def test_vanishing_ideal_empty():
    f = gf9()
    gb = vanishing_ideal_gb(f, HERM, [])
    assert gb.footprint == frozenset()
    assert gb.pivots == ((0, 0),)
    assert gb.polys[0] == parse_poly(f, HERM, "1")


def test_vanishing_ideal_rs_parity_points():
    f = build_field(11)
    gb = vanishing_ideal_gb(f, PLAIN, [(0,), (1,), (2,), (3,)])
    assert gb.footprint == {(0,), (1,), (2,), (3,)}
    assert gb.polys == (parse_poly(f, PLAIN, "9 + x + 4*x^2 + 7*x^3 + x^4"),)


def test_vanishing_ideal_full_curve():
    f = gf9()
    pts = curve_points(f)
    assert len(pts) == 24
    gb = vanishing_ideal_gb(f, HERM, pts)
    assert gb.footprint == {(a, b) for a in range(8) for b in range(3)}
    assert gb.pivots == ((0, 3),)
    assert gb.polys[0] == parse_poly(f, HERM, "2*x^4 + y + y^3")


def test_vanishing_ideal_nine_points():
    f = gf9()
    gb = vanishing_ideal_gb(f, HERM, NINE_POINTS)
    assert gb.pivots == ((4, 0), (0, 3), (3, 1), (2, 2))
    assert len(gb.footprint) == 9


def test_normal_form_rs_remainder():
    f = build_field(11)
    gb = vanishing_ideal_gb(f, PLAIN, [(0,), (1,), (2,), (3,)])
    h = Poly(f, {(4,): 1, (5,): 7, (6,): 3, (7,): 2, (9,): 5})
    r = normal_form(h, gb)
    assert r == parse_poly(f, PLAIN, "9 + 2*x + 7*x^3")


def test_normal_form_curve():
    f = gf9()
    gb = vanishing_ideal_gb(f, HERM, curve_points(f))
    y3 = Poly(f, {(0, 3): 1})
    assert normal_form(y3, gb) == parse_poly(f, HERM, "2*y + x^4")
    # footprint-supported polynomials are fixed points
    p = parse_poly(f, HERM, "a^3 + x^5*y^2")
    assert normal_form(p, gb) == p
    # ideal members collapse to zero
    member = gb.polys[0].shift((2, 1), wrap=8)
    assert normal_form(member, gb).is_zero()


def test_normal_form_is_linear_and_idempotent():
    f = gf9()
    gb = vanishing_ideal_gb(f, HERM, NINE_POINTS)
    rng = random.Random(3)
    for _ in range(20):
        p = Poly(f, {(rng.randrange(8), rng.randrange(8)): rng.randrange(1, 9) for _ in range(4)})
        q = Poly(f, {(rng.randrange(8), rng.randrange(8)): rng.randrange(1, 9) for _ in range(4)})
        np_, nq = normal_form(p, gb), normal_form(q, gb)
        assert normal_form(np_, gb) == np_
        assert normal_form(p.add(q), gb) == np_.add(nq)
        # the normal form agrees with the original on the points
        for pt in NINE_POINTS:
            assert np_.eval_at(pt) == p.eval_at(pt)


def test_footprint_matches_point_count_random():
    rng = random.Random(5)
    f8 = build_field(2, 3)
    order2 = MonomialOrder((1, 1), ((1, 1),))
    torus = [(i, j) for i in range(7) for j in range(7)]
    for _ in range(10):
        pts = rng.sample(torus, rng.randrange(1, 9))
        gb = vanishing_ideal_gb(f8, order2, pts)
        assert len(gb.footprint) == len(pts)
        assert is_order_ideal(gb.footprint, 2)
        for g in gb.polys:
            assert all(g.eval_at(pt) == 0 for pt in pts)


def test_footprint_of_rejects_dividing_pivots():
    f = gf9()
    gb = vanishing_ideal_gb(f, HERM, NINE_POINTS)
    assert footprint_of(gb) == gb.footprint
    bad = gb.__class__(
        field=gb.field,
        order=gb.order,
        q=gb.q,
        polys=gb.polys,
        pivots=((1, 0), (2, 0)),
        footprint=gb.footprint,
    )
    with pytest.raises(ValueError):
        footprint_of(bad)


def test_wrap_poly_merges_collisions():
    f = build_field(11)
    p = Poly(f, {(12,): 3, (2,): 9})  # x^12 == x^2 in the quotient
    assert wrap_poly(p, 11).terms == {(2,): 1}


def test_reduce_basis_drops_quotient_trivial_and_interreduces():
    f = build_field(11)
    # x^10 - 1 wraps to zero; redundant multiples collapse
    g = parse_poly(f, PLAIN, "9 + x + 4*x^2 + 7*x^3 + x^4")
    trivial = Poly(f, {(10,): 1, (0,): 10})
    shifted = g.shift((1,)).scale(5)
    out = reduce_basis(f, PLAIN, 11, [g, trivial, shifted])
    assert out == [g]
