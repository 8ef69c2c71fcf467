import random

import pytest

from avcodes.codes import (
    CodeSpecError,
    encode_dual_nonsystematic,
    encode_primal,
    encode_systematic,
    feng_rao_bound,
    from_vector,
    hermitian_curve_points,
    hermitian_preset,
    is_codeword,
    make_code,
    parity_check,
    random_codeword,
    rs_preset,
    to_vector,
)
from avcodes.field import build_field, count_ops
from avcodes.orders import MonomialOrder
from avcodes.transform import domain_points, dot
from reference import min_distance_bruteforce

SYS_INFO = [1, 7, 3, 2, 0, 5]
SYS_CODEWORD = [2, 9, 0, 4, 1, 7, 3, 2, 0, 5]
NONSYS_MESSAGE = {(4,): 1, (5,): 7, (6,): 3, (7,): 2, (9,): 5}
NONSYS_CODEWORD = [7, 10, 3, 5, 6, 1, 5, 1, 3, 3]


def test_rs_preset_shape():
    code = rs_preset()
    assert (code.n, code.k) == (10, 6)
    assert code.r_set == ((0,), (1,), (2,), (3,))
    assert code.psi == tuple((i,) for i in range(10))
    assert code.phi == ((0,), (1,), (2,), (3,))
    assert code.info_positions() == tuple((i,) for i in range(4, 10))
    assert code.syndrome_is_prefix()


def test_hermitian_preset_shape():
    code = hermitian_preset()
    assert (code.n, code.k) == (24, 15)
    assert len(code.footprint) == 24
    assert code.r_set == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
    )
    assert all(code.order.weight(s) <= 11 for s in code.r_set)
    assert all(
        code.order.weight(s) > 11
        for s in code.footprint - set(code.r_set)
    )
    assert len(code.phi) == 9
    assert code.syndrome_is_prefix()


def test_rs_systematic_known_row():
    code = rs_preset()
    info = {(i + 4,): v for i, v in enumerate(SYS_INFO)}
    cw = encode_systematic(code, info)
    assert to_vector(code, cw) == SYS_CODEWORD
    assert is_codeword(code, cw)


def test_rs_classic_nonsystematic_known_row():
    code = rs_preset()
    cw = encode_dual_nonsystematic(code, NONSYS_MESSAGE, classic=True)
    assert to_vector(code, cw) == NONSYS_CODEWORD
    assert is_codeword(code, cw)


def test_classic_vs_default_sign():
    # in one variable the transform route differs by a global -1
    code = rs_preset()
    a = encode_dual_nonsystematic(code, NONSYS_MESSAGE)
    b = encode_dual_nonsystematic(code, NONSYS_MESSAGE, classic=True)
    assert all(a[pt] == code.field.neg(b[pt]) for pt in code.psi)


def test_classic_needs_full_torus():
    code = hermitian_preset()
    with pytest.raises(CodeSpecError):
        encode_dual_nonsystematic(code, {(4, 0): 1}, classic=True)


def test_systematic_positions_preserved():
    code = hermitian_preset()
    rng = random.Random(7)
    info = {pt: rng.randrange(9) for pt in code.info_positions()}
    cw = encode_systematic(code, info)
    assert all(cw[pt] == v for pt, v in info.items())
    assert is_codeword(code, cw)
    assert set(cw) == set(code.psi)


def test_systematic_zero_info():
    code = hermitian_preset()
    cw = encode_systematic(code, {pt: 0 for pt in code.info_positions()})
    assert all(v == 0 for v in cw.values())


def test_random_codewords_pass_parity():
    rng = random.Random(11)
    for code in (rs_preset(), hermitian_preset()):
        for _ in range(10):
            assert is_codeword(code, random_codeword(code, rng))


def test_primal_dual_orthogonality():
    rng = random.Random(3)
    for code in (rs_preset(), hermitian_preset()):
        f = code.field
        for _ in range(10):
            h = {s: rng.randrange(f.q) for s in code.r_set}
            prim = encode_primal(code, h)
            dual = random_codeword(code, rng)
            acc = 0
            for pt in code.psi:
                acc = f.add(acc, f.mul(prim[pt], dual[pt]))
            assert acc == 0


def test_encode_primal_monomial():
    code = rs_preset()
    cw = encode_primal(code, {(1,): 1})
    assert to_vector(code, cw) == [code.field.exp_alpha(i) for i in range(10)]


def test_parity_check_single_error():
    code = hermitian_preset()
    f = code.field
    rng = random.Random(19)
    cw = random_codeword(code, rng)
    pos = code.psi[5]
    cw[pos] = f.add(cw[pos], 4)
    syn = parity_check(code, cw)
    for r in code.r_set:
        assert syn[r] == f.mul(4, f.exp_alpha(dot(r, pos)))


def test_message_support_validation():
    code = rs_preset()
    with pytest.raises(CodeSpecError):
        encode_primal(code, {(5,): 1})
    with pytest.raises(CodeSpecError):
        encode_dual_nonsystematic(code, {(2,): 1})
    with pytest.raises(CodeSpecError):
        encode_systematic(code, {(4,): 1})


def test_vector_roundtrip():
    code = rs_preset()
    vec = list(range(10))
    assert to_vector(code, from_vector(code, vec)) == vec
    with pytest.raises(CodeSpecError):
        from_vector(code, [0] * 9)


def test_make_code_validation():
    f = build_field(11)
    order = MonomialOrder((1,))
    psi = domain_points(11, 1)
    with pytest.raises(CodeSpecError):
        make_code(f, order, psi)
    with pytest.raises(CodeSpecError):
        make_code(f, order, psi, r_set=[(0,)], weight_cutoff=1)
    with pytest.raises(CodeSpecError):
        make_code(f, order, psi, r_set=[(0,), (12,)])
    with pytest.raises(CodeSpecError):
        make_code(f, order, psi, r_set=[(0,), (0,)])
    with pytest.raises(CodeSpecError):
        make_code(f, order, psi, weight_cutoff=3, phi=[(0,), (1,), (2,)])
    with pytest.raises(CodeSpecError):
        make_code(f, order, psi[:5], weight_cutoff=3, phi=[(0,), (5,), (2,), (9,)])


def test_non_prefix_r_allowed_for_encoding():
    f = build_field(11)
    order = MonomialOrder((1,))
    code = make_code(f, order, domain_points(11, 1), r_set=[(0,), (2,)])
    assert not code.syndrome_is_prefix()
    assert is_codeword(code, random_codeword(code, random.Random(0)))


def test_feng_rao_rs():
    assert feng_rao_bound(rs_preset()) == 5


def test_feng_rao_hermitian():
    assert feng_rao_bound(hermitian_preset()) == 7


def test_feng_rao_gf16_hermitian_cutoffs():
    # the bound at weight cutoffs 10..30 of the GF(16) Hermitian code
    field = build_field(2, 4)
    order = MonomialOrder((4, 5), ((1, 1),))
    psi = hermitian_curve_points(field)
    got = [
        feng_rao_bound(make_code(field, order, psi, weight_cutoff=c))
        for c in range(10, 31)
    ]
    assert got == [4, 4, 4, 4, 4, 5, 8, 8, 8, 9, 10, 12, 12, 13, 14, 15, 16, 17, 18, 19, 20]


def test_feng_rao_sentinel_full_r():
    f = build_field(3, 2, modulus=(2, 1, 1), alpha=3)
    order = MonomialOrder((1, 1))
    psi = [(0, 0), (1, 0), (0, 1), (1, 1)]
    code = make_code(f, order, psi, weight_cutoff=100)
    assert code.k == 0
    assert feng_rao_bound(code) == code.n + 1


def test_bruteforce_rs_distance():
    assert min_distance_bruteforce(rs_preset()) == 5


def test_bruteforce_tiny_gf3():
    f = build_field(3)
    order = MonomialOrder((1,))
    code = make_code(f, order, domain_points(3, 1), r_set=[(0,)])
    assert min_distance_bruteforce(code) == 2
    assert feng_rao_bound(code) == 2


def test_bruteforce_matches_bound_gf8():
    f = build_field(2, 3)
    order = MonomialOrder((1,))
    code = make_code(f, order, domain_points(8, 1), weight_cutoff=2)
    assert code.k == 4
    assert feng_rao_bound(code) == 4
    assert min_distance_bruteforce(code) == 4


def test_bruteforce_guard():
    code = hermitian_preset()
    with pytest.raises(CodeSpecError):
        min_distance_bruteforce(code)


def test_hermitian_curve_points_gf9_unchanged():
    field = hermitian_preset().field
    assert hermitian_curve_points(field) == [
        (0, 4), (0, 5), (0, 7), (1, 0), (1, 1), (1, 3), (2, 4), (2, 5),
        (2, 7), (3, 0), (3, 1), (3, 3), (4, 4), (4, 5), (4, 7), (5, 0),
        (5, 1), (5, 3), (6, 4), (6, 5), (6, 7), (7, 0), (7, 1), (7, 3),
    ]  # fmt: skip


def test_hermitian_curve_points_gf16():
    # x^5 = y^4 + y over GF(16) has s^3 - s = 60 torus points
    field = build_field(2, 4)
    pts = hermitian_curve_points(field)
    assert len(pts) == 60
    for i, j in pts:
        x, y = field.exp_alpha(i), field.exp_alpha(j)
        assert field.pow(x, 5) == field.add(field.pow(y, 4), y)


def test_hermitian_curve_points_need_even_degree():
    for p, m in ((2, 3), (3, 1), (5, 3)):
        with pytest.raises(CodeSpecError):
            hermitian_curve_points(build_field(p, m))


def test_encoder_op_counts_are_pinned():
    # field-op totals of the Hermitian preset encoders; a refactor of the
    # fill or transform layers must leave them exactly as they are
    code = hermitian_preset()
    info = {pt: (3 * i + 1) % 9 for i, pt in enumerate(code.info_positions())}
    with count_ops() as c:
        encode_systematic(code, info)
    assert (c.addsub, c.muldiv) == (2449, 2257)
    support = sorted(set(code.footprint) - set(code.r_set), key=code.order.key)
    h = {s: (2 * i + 5) % 9 for i, s in enumerate(support)}
    with count_ops() as c:
        encode_dual_nonsystematic(code, h)
    assert (c.addsub, c.muldiv) == (1392, 1224)


def test_construction_op_counts_are_pinned():
    # field-op totals of make_code: the interpolation of Psi, and of the
    # systematic positions when given; a faster interpolation must leave
    # them exactly as they are
    for spec, want in ((rs_preset(), (695, 890)), (hermitian_preset(), (7124, 8079))):
        with count_ops() as c:
            again = make_code(spec.field, spec.order, spec.psi, r_set=spec.r_set, phi=spec.phi)
        assert again.gb_phi is not None
        assert (c.addsub, c.muldiv) == want
    field = build_field(2, 4)
    order = MonomialOrder((4, 5), ((1, 1),))
    psi = hermitian_curve_points(field)
    with count_ops() as c:
        spec = make_code(field, order, psi, weight_cutoff=19)
    assert (spec.n, spec.k) == (60, 46)
    assert (c.addsub, c.muldiv) == (88681, 93627)
