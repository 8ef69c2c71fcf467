import random

import pytest

from avcodes.field import build_field
from avcodes.groebner import vanishing_ideal_gb
from avcodes.orders import MonomialOrder
from avcodes.recurrence import (
    ExtensionError,
    c_inverse,
    c_map,
    ev,
    extend,
    include,
    restrict_a,
)
from avcodes.transform import domain_points, idft

HERM = MonomialOrder((3, 4), ((1, 1),))
PLAIN = MonomialOrder((1,))


def gf9():
    return build_field(3, 2, modulus=(2, 1, 1), alpha=3)


def row(arr, n):
    return [arr[(i,)] for i in range(n)]


def test_extend_error_locator_row():
    f = build_field(11)
    gb = vanishing_ideal_gb(f, PLAIN, [(0,), (9,)])  # error positions 1 and alpha^9
    assert gb.polys[0].terms == {(0,): 6, (1,): 4, (2,): 1}
    seed = {(0,): 4, (1,): 7}
    arr = extend(gb, seed)
    assert row(arr, 10) == [4, 7, 3, 1, 0, 5, 2, 6, 8, 9]


def test_extend_parity_row():
    f = build_field(11)
    gb = vanishing_ideal_gb(f, PLAIN, [(0,), (1,), (2,), (3,)])
    seed = {(0,): 7, (1,): 3, (2,): 3, (3,): 1}
    arr = extend(gb, seed)
    assert row(arr, 10) == [7, 3, 3, 1, 3, 0, 4, 4, 6, 4]


def test_extend_zero_and_validation():
    f = build_field(11)
    gb = vanishing_ideal_gb(f, PLAIN, [(0,), (9,)])
    zero = extend(gb, {(0,): 0, (1,): 0})
    assert all(v == 0 for v in zero.values())
    with pytest.raises(ValueError):
        extend(gb, {(0,): 1})  # wrong seed support


def test_extend_schedule_independent():
    rng = random.Random(17)
    f = gf9()
    pts = [(1, 0), (0, 4), (6, 4), (2, 2)]
    gb = vanishing_ideal_gb(f, HERM, pts)
    for _ in range(10):
        seed = {s: rng.randrange(9) for s in gb.footprint}
        base = extend(gb, seed)
        assert extend(gb, seed, rng=rng) == base


def test_power_sum_seeds_extend_to_power_sum_arrays():
    # seeds built as power sums of a pattern extend to the full power-sum array
    rng = random.Random(23)
    f = gf9()
    torus = domain_points(9, 2)
    for _ in range(10):
        pts = rng.sample(torus, rng.randrange(1, 5))
        gb = vanishing_ideal_gb(f, HERM, pts)
        values = {pt: rng.randrange(1, 9) for pt in pts}
        full_truth = c_inverse(f, values, domain_points(9, 2))
        seed = {s: full_truth[s] for s in gb.footprint}
        assert extend(gb, seed) == full_truth


def test_include_restrict():
    f = build_field(11)
    arr = include({(3,): 5}, 11, 1)
    assert arr[(3,)] == 5 and sum(v != 0 for v in arr.values()) == 1
    assert restrict_a(arr, [(0,)]) == {(0,): 0}
    with pytest.raises(ValueError):
        include({(10,): 1}, 11, 1)


def test_c_map_parity_example():
    f = build_field(11)
    phi = [(0,), (1,), (2,), (3,)]
    gb = vanishing_ideal_gb(f, PLAIN, phi)
    seed = {(0,): 7, (1,): 3, (2,): 3, (3,): 1}
    out = c_map(gb, seed, onto=phi)
    assert out == {(0,): 9, (1,): 2, (2,): 0, (3,): 7}


def test_c_map_leak_detection():
    f = build_field(11)
    gb = vanishing_ideal_gb(f, PLAIN, [(0,), (1,), (2,), (3,)])
    seed = {(0,): 7, (1,): 3, (2,): 3, (3,): 1}
    with pytest.raises(ValueError, match="leak"):
        c_map(gb, seed, onto=[(0,), (1,), (2,)])  # too small a target set


def test_c_map_degenerates_to_idft_on_full_torus():
    f = build_field(11)
    torus = domain_points(11, 1)
    gb = vanishing_ideal_gb(f, PLAIN, torus)
    assert gb.pivots == ()
    rng = random.Random(5)
    seed = {s: rng.randrange(11) for s in gb.footprint}
    assert c_map(gb, seed, onto=torus) == idft(f, dict(seed), 1)


def test_c_inverse_inverts_c_map():
    rng = random.Random(7)
    f = gf9()
    torus = domain_points(9, 2)
    for _ in range(10):
        pts = rng.sample(torus, rng.randrange(1, 6))
        gb = vanishing_ideal_gb(f, HERM, pts)
        seed = {s: rng.randrange(9) for s in gb.footprint}
        c = c_map(gb, seed, onto=pts)
        back = c_inverse(f, c, sorted(gb.footprint))
        assert back == seed


def test_ev_is_transpose_of_c_inverse():
    f = gf9()
    pts = [(1, 0), (1, 1), (3, 0), (5, 1)]
    gb = vanishing_ideal_gb(f, HERM, pts)
    exps = sorted(gb.footprint, key=HERM.key)
    for s in exps:
        col = ev(f, {s: 1}, pts)
        for pt in pts:
            back = c_inverse(f, {pt: 1}, [s])
            assert col[pt] == back[s]


def test_extend_reports_inconsistent_basis():
    # x^2 - 1 demands k(2,1) = k(0,1) while x*y - x^2 demands k(2,1) = k(1,0);
    # seeding those two cells differently forces a contradiction
    from avcodes.groebner import GroebnerBasis, footprint_from_pivots
    from avcodes.poly import parse_poly

    f = gf9()
    g1 = parse_poly(f, HERM, "2 + x^2")
    g2 = parse_poly(f, HERM, "2*x^2 + x*y")
    pivots = ((2, 0), (1, 1))
    fp = footprint_from_pivots(pivots, 9, 2)
    gb = GroebnerBasis(
        field=f,
        order=HERM,
        q=9,
        polys=(g1, g2),
        pivots=pivots,
        footprint=fp,
    )
    seed = {s: 0 for s in fp}
    seed[(1, 0)] = 5
    seed[(0, 1)] = 3
    with pytest.raises(ExtensionError):
        extend(gb, seed)
