import random
from itertools import combinations, product

import pytest

from avcodes.codes import (
    HERMITIAN_PHI,
    CodeSpecError,
    encode_systematic,
    feng_rao_bound,
    hermitian_curve_points,
    hermitian_preset,
    is_codeword,
    make_code,
    random_codeword,
    rs_preset,
)
from avcodes.decoder import (
    _Iteration,
    bms,
    decode,
    erasure_locator,
    solve_affine,
    syndrome_array,
)
from avcodes.field import build_field, count_ops
from avcodes.groebner import monomial_eval, reduce_basis, vanishing_ideal_gb
from avcodes.orders import MonomialOrder, vec_wrap
from avcodes.poly import Poly
from avcodes.recurrence import c_map
from avcodes.transform import domain_points
from reference import locator_oracle

RS_RECEIVED = [1, 9, 0, 4, 1, 7, 3, 2, 0, 10]
RS_CODEWORD = [2, 9, 0, 4, 1, 7, 3, 2, 0, 5]
RS_SYNDROMES = [4, 7, 3, 1, 2, 6, 4, 7, 5, 4]
RS_LOCATOR = ["6 + 4*x + x^2"]

HERM_ERROR_POINTS = [(1, 0), (0, 4), (6, 4)]
HERM_ERROR_VALUES = [1, 2, 3]
HERM_LOCATOR = [
    "a^2 + a^5*x + a^6*y + x^2",
    "a^5 + x + a^5*y + x*y",
    "a^4 + y^2",
]


def sakata_core(field, order, lookup, region):
    """Candidates and footprint of the BMS iteration over the sorted region."""
    it = _Iteration(field, order, lookup)
    for k in region:
        it.step(k)
    it.revalidate()
    return it.F, it.delta


def rs_received_map():
    return dict(zip(rs_preset().psi, RS_RECEIVED))


def herm_error_map():
    spec = hermitian_preset()
    err = {pt: 0 for pt in spec.psi}
    for pt, v in zip(HERM_ERROR_POINTS, HERM_ERROR_VALUES):
        err[pt] = v
    return err


def gf16_c19():
    field = build_field(2, 4)
    order = MonomialOrder((4, 5), ((1, 1),))
    return make_code(field, order, hermitian_curve_points(field), weight_cutoff=19)


def shortened_hermitian():
    full = hermitian_preset()
    lines = sorted({pt[1] for pt in full.psi})[:3]
    psi = tuple(pt for pt in full.psi if pt[1] in lines)
    return make_code(full.field, full.order, psi, weight_cutoff=11)


# -- worked example, GF(11)


def test_rs_received_word_decodes_to_known_codeword():
    spec = rs_preset()
    res = decode(spec, rs_received_map())
    assert res.status == "corrected"
    assert res.detail == ""
    assert [res.codeword[pt] for pt in spec.psi] == RS_CODEWORD
    assert res.error == {pt: v for pt, v in zip(spec.psi, [10] + [0] * 8 + [5])}
    assert res.locator.describe() == RS_LOCATOR
    assert set(res.locator.footprint) == {(0,), (1,)}


def test_rs_full_syndrome_row():
    spec = rs_preset()
    syn = syndrome_array(spec, rs_received_map())
    assert [syn[(i,)] for i in range(10)] == RS_SYNDROMES


def test_rs_bms_recovers_sigma():
    spec = rs_preset()
    syn = {(i,): v for i, v in enumerate(RS_SYNDROMES[:4])}
    basis = bms(spec, syn)
    assert basis.describe() == RS_LOCATOR
    oracle = locator_oracle(spec, syn)
    assert oracle is not None and oracle.polys == basis.polys


# -- worked example, GF(9) Hermitian


def test_hermitian_three_errors_reproduce_known_basis():
    spec = hermitian_preset()
    res = decode(spec, herm_error_map())
    assert res.status == "corrected"
    assert res.locator.describe() == HERM_LOCATOR
    assert sorted(res.locator.footprint, key=spec.order.key) == [
        (0, 0),
        (1, 0),
        (0, 1),
    ]
    assert res.error == herm_error_map()
    assert all(v == 0 for v in res.codeword.values())


def test_hermitian_pinned_case_matches_oracle_and_interpolation():
    spec = hermitian_preset()
    syn = syndrome_array(spec, herm_error_map())
    syn_r = {a: syn[a] for a in spec.r_set}
    basis = bms(spec, syn_r)
    oracle = locator_oracle(spec, syn_r)
    truth = vanishing_ideal_gb(spec.field, spec.order, HERM_ERROR_POINTS)
    assert oracle is not None
    assert basis.polys == oracle.polys == truth.polys


def test_hermitian_collinear_triple_needs_cubic():
    # all three points share one x-line, so the locator footprint is a
    # y-chain and the y^3 pivot sees no syndrome rows at all
    spec = hermitian_preset()
    triple = [pt for pt in spec.psi if pt[0] == 0]
    assert len(triple) == 3
    err = {pt: 0 for pt in spec.psi}
    for i, pt in enumerate(triple):
        err[pt] = i + 2
    syn = syndrome_array(spec, err)
    syn_r = {a: syn[a] for a in spec.r_set}
    basis = bms(spec, syn_r)
    truth = vanishing_ideal_gb(spec.field, spec.order, triple)
    assert basis.polys == truth.polys
    assert sorted(basis.footprint, key=spec.order.key) == [(0, 0), (0, 1), (0, 2)]
    res = decode(spec, err)
    assert res.status == "corrected" and res.error == err


# -- basic bms behavior


def test_zero_syndrome_gives_unit_basis():
    for spec in (rs_preset(), hermitian_preset()):
        basis = bms(spec, {a: 0 for a in spec.r_set})
        assert basis.footprint == frozenset()
        origin = (0,) * spec.order.nvars
        assert basis.polys == (Poly(spec.field, {origin: 1}),)


def test_bms_full_box_validation_matches_r_only():
    # a pure error array is known on the whole box; the iteration over the
    # wrapped full-box array must land on the same footprint and, once
    # interreduced, the same basis as the public-region run
    cases = [
        (rs_preset(), {(0,): 10, (9,): 5}, RS_LOCATOR),
        (hermitian_preset(), dict(zip(HERM_ERROR_POINTS, HERM_ERROR_VALUES)), HERM_LOCATOR),
    ]
    for spec, errors, locator in cases:
        field, order, q = spec.field, spec.order, spec.field.q
        err = {pt: errors.get(pt, 0) for pt in spec.psi}
        syn = syndrome_array(spec, err)
        box = sorted(syn, key=order.key)
        F, delta = sakata_core(field, order, lambda pos: syn[vec_wrap(pos, q - 1)], box)
        full = reduce_basis(field, order, q, [Poly(field, f) for _t, f in F])
        part = bms(spec, {a: syn[a] for a in spec.r_set})
        assert frozenset(delta) == part.footprint
        assert full == list(part.polys)
        assert part.describe() == locator
        assert part.polys == vanishing_ideal_gb(field, order, sorted(errors)).polys


def test_bms_rejects_incomplete_syndrome():
    spec = rs_preset()
    with pytest.raises(CodeSpecError):
        bms(spec, {(0,): 1, (1,): 2})


def test_bms_rejects_non_prefix_region():
    spec = rs_preset()
    code = make_code(spec.field, spec.order, spec.psi, r_set=[(0,), (2,)])
    syn = {(i,): 0 for i in range(10)}
    with pytest.raises(CodeSpecError):
        bms(code, syn)


def test_solve_affine_keeps_unknowns_without_rows():
    # zero constraint rows must still expose every free direction
    field = rs_preset().field
    part, null = solve_affine(field, [], [], ncols=3)
    assert part == [0, 0, 0]
    assert len(null) == 3
    sol = solve_affine(field, [[1, 1, 0]], [5], ncols=3)
    assert sol is not None and len(sol[1]) == 2


# -- erasure locator routes


def test_erasure_locator_empty_set_is_unit_ideal():
    spec = hermitian_preset()
    basis = erasure_locator(spec, ())
    assert basis.footprint == frozenset()
    assert basis.polys == (Poly(spec.field, {(0, 0): 1}),)


def test_erasure_locator_single_point():
    spec = hermitian_preset()
    basis = erasure_locator(spec, ((1, 3),))
    assert basis.describe() == ["a^5 + x", "a^7 + y"]
    assert basis.footprint == frozenset({(0, 0)})


def iterated_erasure_locator(spec, phi1):
    """Erasure locator by the recurrence iteration instead of interpolation.

    Runs the iteration on the periodic indicator power-sum array of phi1
    over the doubled box (2(q-1))^N and interreduces the resulting basis.
    """
    field, order, q = spec.field, spec.order, spec.field.q
    cache = {}

    def lookup(pos):
        w = vec_wrap(pos, q - 1)
        if w not in cache:
            acc = 0
            for p in phi1:
                acc = field.add(acc, monomial_eval(field, w, p))
            cache[w] = acc
        return cache[w]

    region = sorted(product(range(2 * (q - 1)), repeat=order.nvars), key=order.key)
    F, _delta = sakata_core(field, order, lookup, region)
    reduced = reduce_basis(field, order, q, [Poly(field, f) for _t, f in F])
    return sorted(reduced, key=lambda g: order.key(g.leading_monomial(order)))


def assert_locator_routes_agree(spec, phi1):
    direct = vanishing_ideal_gb(spec.field, spec.order, list(phi1))
    iterated = iterated_erasure_locator(spec, phi1)
    assert [g.terms for g in iterated] == [g.terms for g in direct.polys]
    assert erasure_locator(spec, phi1).polys == direct.polys
    assert len(direct.footprint) == len(phi1)


def test_erasure_locator_matches_interpolation():
    spec = hermitian_preset()
    sets = [
        spec.psi[:2],
        spec.psi[:3],
        (spec.psi[0], spec.psi[7], spec.psi[12], spec.psi[20]),
        HERMITIAN_PHI,
        spec.psi,
    ]
    for phi1 in sets:
        assert_locator_routes_agree(spec, phi1)


def test_rs_erasure_locator_matches_interpolation():
    spec = rs_preset()
    for size in range(1, 5):
        assert_locator_routes_agree(spec, spec.psi[:size])


# -- decode: error-only patterns


def test_decode_identity_on_codewords():
    rng = random.Random(3)
    for spec in (rs_preset(), hermitian_preset()):
        for _ in range(5):
            cw = random_codeword(spec, rng)
            res = decode(spec, cw)
            assert res.status == "corrected"
            assert res.codeword == cw
            assert all(v == 0 for v in res.error.values())
            assert res.locator.footprint == frozenset()


def test_rs_single_errors_all_positions():
    spec = rs_preset()
    cw = random_codeword(spec, random.Random(9))
    for i, pos in enumerate(spec.psi):
        for value in (1, 7):
            work = dict(cw)
            work[pos] = (work[pos] + value) % 11
            res = decode(spec, work)
            assert res.status == "corrected" and res.codeword == cw
            assert res.error[pos] == value


def test_rs_double_errors_all_position_pairs():
    spec = rs_preset()
    cw = random_codeword(spec, random.Random(10))
    for m, (i, j) in enumerate(combinations(range(10), 2)):
        work = dict(cw)
        work[spec.psi[i]] = (work[spec.psi[i]] + 1 + m % 10) % 11
        work[spec.psi[j]] = (work[spec.psi[j]] + 1 + (m + 3) % 10) % 11
        res = decode(spec, work)
        assert res.status == "corrected" and res.codeword == cw
        assert len(res.locator.footprint) == 2


def test_hermitian_random_inbound_patterns():
    spec = hermitian_preset()
    rng = random.Random(17)
    for _ in range(25):
        cw = random_codeword(spec, rng)
        n_erase = rng.randrange(0, 4)
        budget = (feng_rao_bound(spec) - 1 - n_erase) // 2
        n_err = rng.randrange(0, budget + 1)
        pts = rng.sample(spec.psi, n_erase + n_err)
        phi1, phi2 = pts[:n_erase], pts[n_erase:]
        work = dict(cw)
        for pt in phi1:
            work[pt] = rng.randrange(9)
        for pt in phi2:
            work[pt] = (work[pt] + rng.randrange(1, 9)) % 9
        res = decode(spec, work, erasures=phi1)
        assert res.status == "corrected", res.detail
        assert res.codeword == cw
        assert len(res.locator.footprint) == len(set(phi1) | set(phi2))


def test_bms_matches_oracle_on_random_patterns():
    spec = hermitian_preset()
    rng = random.Random(23)
    for _ in range(20):
        n_err = rng.randrange(0, 4)
        err = {pt: 0 for pt in spec.psi}
        for pt in rng.sample(spec.psi, n_err):
            err[pt] = rng.randrange(1, 9)
        syn = syndrome_array(spec, err)
        syn_r = {a: syn[a] for a in spec.r_set}
        basis = bms(spec, syn_r)
        oracle = locator_oracle(spec, syn_r)
        assert oracle is not None and basis.polys == oracle.polys


# -- decode: erasures


def test_erasure_only_decode_reproduces_systematic_encoding():
    rng = random.Random(29)
    for spec in (rs_preset(), hermitian_preset()):
        info = {pt: rng.randrange(spec.field.q) for pt in spec.info_positions()}
        cw = encode_systematic(spec, info)
        work = dict(info)
        for pt in spec.phi:
            work[pt] = 0
        res = decode(spec, work, erasures=spec.phi)
        assert res.status == "corrected"
        assert res.codeword == cw
        for pt in spec.phi:
            assert res.error[pt] == spec.field.neg(cw[pt])
        for pt in spec.info_positions():
            assert res.error[pt] == 0


def test_rs_erasures_up_to_capacity():
    spec = rs_preset()
    cw = random_codeword(spec, random.Random(31))
    for size in (1, 2, 3, 4):
        for pts in combinations(spec.psi, size):
            if size > 2 and pts[0] != spec.psi[0]:
                continue
            work = dict(cw)
            for pt in pts:
                work[pt] = (work[pt] + 5) % 11
            res = decode(spec, work, erasures=pts)
            assert res.status == "corrected" and res.codeword == cw


def test_rs_five_erasures_underdetermined():
    # five erased positions push the locator footprint one step past R, and
    # the missing syndrome value is a genuinely free direction
    spec = rs_preset()
    cw = random_codeword(spec, random.Random(37))
    pts = spec.psi[:5]
    work = dict(cw)
    for pt in pts:
        work[pt] = 0
    res = decode(spec, work, erasures=pts)
    assert res.status == "failure"
    assert "underdetermined" in res.detail


def test_hermitian_two_full_lines_underdetermined():
    # eight erasures across two x^4 = c lines: the erasure footprint leaves
    # R, and no syndrome constrains the values at its monomials outside R
    spec = hermitian_preset()
    lines = [pt for pt in spec.psi if pt[1] in (0, 1)]
    assert len(lines) == 8
    gb = vanishing_ideal_gb(spec.field, spec.order, lines)
    assert not set(gb.footprint) <= set(spec.r_set)
    cw = random_codeword(spec, random.Random(41))
    work = dict(cw)
    for pt in lines:
        work[pt] = 0
    with count_ops() as c:
        res = decode(spec, work, erasures=lines)
    assert res.status == "failure"
    assert "underdetermined" in res.detail
    # the decode stops right after the locator: the erasure locator,
    # syndromes on R and the BMS iteration with its certification check
    assert (c.addsub, c.muldiv) == (898, 1102)


def test_erasure_sets_decode_exactly_when_their_footprint_lies_in_r():
    # R is an order prefix, so no syndrome constrains a footprint value
    # outside R: past the bound only erasure sets whose footprint stays in R
    # can decode, and every other set fails as underdetermined
    rng = random.Random(61)
    outcomes = set()
    for spec in (rs_preset(), hermitian_preset()):
        size = len(spec.r_set)
        for _ in range(150):
            pts = rng.sample(spec.psi, rng.randrange(size - 3, size + 1))
            inside = erasure_locator(spec, pts).footprint <= set(spec.r_set)
            cw = random_codeword(spec, rng)
            work = dict(cw)
            for pt in pts:
                work[pt] = rng.randrange(spec.field.q)
            res = decode(spec, work, erasures=pts)
            if inside:
                assert res.status == "corrected" and res.codeword == cw
            else:
                assert res.status == "failure" and "underdetermined" in res.detail
            outcomes.add(inside)
    assert outcomes == {True, False}


def test_hermitian_parity_set_erasures_decode_beyond_bound():
    # nine erasures exceed the bound, but their footprint is exactly R, so
    # every seed value is known and erasure filling still succeeds
    spec = hermitian_preset()
    cw = random_codeword(spec, random.Random(43))
    work = dict(cw)
    for pt in HERMITIAN_PHI:
        work[pt] = 0
    res = decode(spec, work, erasures=HERMITIAN_PHI)
    assert res.status == "corrected"
    assert res.codeword == cw


def test_mixed_erasures_and_errors():
    spec = hermitian_preset()
    rng = random.Random(47)
    for _ in range(10):
        cw = random_codeword(spec, rng)
        pts = rng.sample(spec.psi, 4)
        phi1, phi2 = pts[:2], pts[2:]
        work = dict(cw)
        for pt in phi1:
            work[pt] = 0
        for pt in phi2:
            work[pt] = (work[pt] + rng.randrange(1, 9)) % 9
        res = decode(spec, work, erasures=phi1)
        assert res.status == "corrected" and res.codeword == cw


def test_errors_filling_one_x_line_are_corrected():
    # every point of one x-line is in error, so the locator footprint is a
    # y-chain whose top pivot is the pivot of I(Psi) (y^3 over GF(9), y^4
    # over GF(16)): no syndrome row reaches it, and the certification leaves
    # it out
    for spec, per_line, pinned in (
        (hermitian_preset(), 3, (2285, 2153)),
        (gf16_c19(), 4, (11242, 10767)),
    ):
        rng = random.Random(59)
        counts = []
        for x in sorted({pt[0] for pt in spec.psi}):
            line = [pt for pt in spec.psi if pt[0] == x]
            assert len(line) == per_line
            cw = random_codeword(spec, rng)
            work = dict(cw)
            for pt in line:
                work[pt] = spec.field.add(work[pt], rng.randrange(1, spec.field.q))
            with count_ops() as c:
                res = decode(spec, work)
            assert res.status == "corrected" and res.codeword == cw
            truth = vanishing_ideal_gb(spec.field, spec.order, line)
            assert res.locator.polys == truth.polys
            counts.append((c.addsub, c.muldiv))
        assert counts[0] == pinned


def test_two_errors_two_erasures_vote_past_the_erasure_footprint():
    # 2e + r = 6 = d* - 1 on the GF(9) preset.  The vote must exclude b by
    # the witness spans, not by the footprint: the erasure part of the
    # footprint has no witness behind it
    spec = hermitian_preset()
    rng = random.Random(67)
    for trial in range(300):
        cw = random_codeword(spec, rng)
        pts = rng.sample(spec.psi, 4)
        erased, wrong = pts[:2], pts[2:]
        work = dict(cw)
        for pt in erased:
            work[pt] = rng.randrange(9)
        for pt in wrong:
            work[pt] = spec.field.add(work[pt], rng.randrange(1, 9))
        res = decode(spec, work, erasures=erased)
        assert res.status == "corrected" and res.codeword == cw, (trial, res.detail)
        truth = vanishing_ideal_gb(spec.field, spec.order, pts)
        assert res.locator.polys == truth.polys, trial


def sweep_codes():
    """Codes past the presets: Hermitian GF(16) and a subset, a cube, RS."""
    f16, f8, f64 = build_field(2, 4), build_field(2, 3), build_field(2, 6)
    herm = MonomialOrder((4, 5), ((1, 1),))
    curve = hermitian_curve_points(f16)
    subset = random.Random(71).sample(curve, 40)
    cube = random.Random(73).sample(domain_points(8, 3), 60)
    graded = MonomialOrder((1, 1, 1), ((2, 1), (1, 1)))
    line = MonomialOrder((1,))
    codes = [make_code(f16, herm, curve, weight_cutoff=c) for c in range(8, 21)]
    codes += [make_code(f16, herm, subset, weight_cutoff=c) for c in (10, 14)]
    codes += [make_code(f8, graded, cube, weight_cutoff=c) for c in (2, 3)]
    codes.append(make_code(f16, line, domain_points(16, 1), weight_cutoff=6))
    codes.append(make_code(f64, line, domain_points(64, 1), weight_cutoff=15))
    return codes


def test_in_radius_sweep_beyond_the_presets():
    # every pattern with 2e + r <= d* - 1 is corrected with the locator of
    # its positions; random words never raise and never come back
    # "corrected" with a non-codeword
    rng = random.Random(79)
    for spec in sweep_codes():
        assert spec.syndrome_is_prefix()
        d = feng_rao_bound(spec)
        q = spec.field.q
        for _ in range(30):
            r = rng.randrange(d)
            e = rng.randrange((d - 1 - r) // 2 + 1)
            cw = random_codeword(spec, rng)
            pts = rng.sample(spec.psi, e + r)
            work = dict(cw)
            for pt in pts[:r]:
                work[pt] = rng.randrange(q)
            for pt in pts[r:]:
                work[pt] = spec.field.add(work[pt], rng.randrange(1, q))
            res = decode(spec, work, erasures=pts[:r])
            assert res.status == "corrected" and res.codeword == cw, (spec.n, d, e, r)
            truth = vanishing_ideal_gb(spec.field, spec.order, pts)
            assert res.locator.polys == truth.polys, (spec.n, d, e, r)
        for _ in range(3):
            res = decode(spec, {pt: rng.randrange(q) for pt in spec.psi})
            assert res.status == "failure" or is_codeword(spec, res.codeword)


# -- beyond the radius


def test_rs_three_errors_never_silently_invalid():
    spec = rs_preset()
    rng = random.Random(53)
    outcomes = set()
    for _ in range(20):
        cw = random_codeword(spec, rng)
        work = dict(cw)
        for pt in rng.sample(spec.psi, 3):
            work[pt] = (work[pt] + rng.randrange(1, 11)) % 11
        res = decode(spec, work)
        outcomes.add(res.status)
        if res.status == "corrected":
            # beyond-radius corrections may pick a different codeword, but
            # never a non-codeword
            assert is_codeword(spec, res.codeword)
    assert outcomes  # at least ran; both outcomes are legitimate here


# -- exhaustive sweep on a shortened code


def test_shortened_code_distance_levels():
    sc = shortened_hermitian()
    assert (sc.n, len(sc.r_set), sc.k) == (12, 9, 3)
    assert sc.syndrome_is_prefix()
    assert feng_rao_bound(sc) == 8
    # the dual code is small enough to enumerate outright
    free = sorted(set(sc.footprint) - set(sc.r_set), key=sc.order.key)
    rows = []
    for s in free:
        seed = {t: (1 if t == s else 0) for t in sc.footprint}
        word = c_map(sc.gb, seed, onto=sc.psi)
        rows.append([word[pt] for pt in sc.psi])
    field = sc.field
    dist = sc.n + 1
    for coef in product(range(9), repeat=3):
        if not any(coef):
            continue
        weight = 0
        for j in range(sc.n):
            v = 0
            for c, row in zip(coef, rows):
                v = field.add(v, field.mul(c, row[j]))
            weight += v != 0
        dist = min(dist, weight)
    assert dist == 8


def test_shortened_code_sweep_all_supports_up_to_three_errors():
    sc = shortened_hermitian()
    cases = [()]
    cases += [(i,) for i in range(sc.n)]
    cases += list(combinations(range(sc.n), 2))
    cases += list(combinations(range(sc.n), 3))
    for m, support in enumerate(cases):
        err = {pt: 0 for pt in sc.psi}
        for i, pos in enumerate(support):
            err[sc.psi[pos]] = 1 + (m + i) % 8
        syn = syndrome_array(sc, err)
        syn_r = {a: syn[a] for a in sc.r_set}
        basis = bms(sc, syn_r)
        oracle = locator_oracle(sc, syn_r)
        truth = vanishing_ideal_gb(
            sc.field, sc.order, [pt for pt in sc.psi if err[pt]]
        )
        assert oracle is not None, support
        assert basis.polys == oracle.polys == truth.polys, support
        res = decode(sc, err)
        assert res.status == "corrected" and res.error == err, support


def test_shortened_code_single_errors_all_values():
    sc = shortened_hermitian()
    for pos in sc.psi:
        for value in range(1, 9):
            err = {pt: 0 for pt in sc.psi}
            err[pos] = value
            res = decode(sc, err)
            assert res.status == "corrected" and res.error == err


# -- input validation


def test_decode_validates_inputs():
    spec = rs_preset()
    good = rs_received_map()
    with pytest.raises(CodeSpecError):
        decode(spec, {pt: v for pt, v in list(good.items())[:9]})
    bad = dict(good)
    bad[(0,)] = 11
    with pytest.raises(CodeSpecError):
        decode(spec, bad)
    herm = hermitian_preset()
    word = {pt: 0 for pt in herm.psi}
    with pytest.raises(CodeSpecError):
        # (1, 1) is a valid torus point but not on the curve
        decode(herm, word, erasures=[(0, 0)])


def test_decode_requires_prefix_syndrome_set():
    spec = rs_preset()
    base = make_code(spec.field, spec.order, spec.psi, r_set=[(0,), (2,)])
    word = {pt: 0 for pt in base.psi}
    with pytest.raises(CodeSpecError):
        decode(base, word)


def test_syndrome_array_requires_coverage():
    spec = rs_preset()
    with pytest.raises(CodeSpecError):
        syndrome_array(spec, {(0,): 1})


# -- pinned costs


def test_errors_only_decode_op_counts_are_pinned():
    # field-op totals of the criterion-2 three-error decode
    spec = hermitian_preset()
    work = {pt: 0 for pt in spec.psi}
    work.update({(1, 0): 1, (0, 4): 2, (6, 4): 3})
    with count_ops() as c:
        result = decode(spec, work)
    assert result.status == "corrected"
    assert (c.addsub, c.muldiv) == (2706, 2527)


def test_gf16_mixed_decode_op_counts_are_pinned():
    # GF(16) c19 Hermitian code, three errors and two erasures
    spec = gf16_c19()
    field = spec.field
    cw = random_codeword(spec, random.Random(5))
    work = dict(cw)
    for i, j in enumerate((3, 17, 40)):
        work[spec.psi[j]] = field.add(work[spec.psi[j]], i + 1)
    erased = [spec.psi[8], spec.psi[25]]
    for pt in erased:
        work[pt] = 7
    with count_ops() as c:
        result = decode(spec, work, erasures=erased)
    assert result.status == "corrected" and result.codeword == cw
    assert (c.addsub, c.muldiv) == (14342, 13730)


def test_inconsistent_extension_decode_op_counts_are_pinned():
    # four errors, past the bound: the locator's recurrences contradict
    # each other in the whole-box check of the extension
    spec = hermitian_preset()
    work = {pt: 0 for pt in spec.psi}
    work.update({(1, 1): 1, (3, 3): 8, (5, 3): 2, (6, 4): 8})
    # the decode votes; the pair table it reads is built once per code in a
    # scope of its own, so a decode on a cold table counts the same as any
    # later one
    with count_ops() as c:
        result = decode(spec, work)
    assert result.status == "failure"
    assert result.detail == (
        "syndrome extension inconsistent: recurrence 1 violated at (2, 3)"
    )
    assert (c.addsub, c.muldiv) == (1193, 1204)
    with count_ops() as again:
        decode(spec, work)
    assert (again.addsub, again.muldiv) == (c.addsub, c.muldiv)
