"""Acceptance suite: nine end-to-end criteria, one PASS/FAIL line each.

`pytest tests/test_acceptance.py -s` prints the per-criterion lines;
`python3 tests/test_acceptance.py` runs the same checks standalone.
Every comparison is exact field equality; nothing here is approximate.
"""

import contextlib
import io
import random
import sys
import time
from itertools import combinations, product

from avcodes import cli
from avcodes.bench import (
    DEFAULT_DECODE_PRIMES,
    DEFAULT_DFT_SIZES,
    decode_rows,
    dft_rows,
    field_for,
)
from avcodes.codes import (
    HERMITIAN_PHI,
    encode_dual_nonsystematic,
    encode_systematic,
    feng_rao_bound,
    hermitian_preset,
    random_codeword,
    rs_preset,
)
from avcodes.decoder import bms, decode, syndrome_array
from avcodes.demos import transcript
from avcodes.groebner import vanishing_ideal_gb
from avcodes.recurrence import c_inverse, c_map, ev, extend, include, restrict_a
from avcodes.transform import dft, domain_points, idft
from reference import locator_oracle, min_distance_bruteforce

# pinned reed-solomon walkthrough rows over GF(11)
RS_INFO = [1, 7, 3, 2, 0, 5]
RS_DIRECT = [7, 10, 3, 5, 6, 1, 5, 1, 3, 3]
RS_INFO_TRANSFORM = [7, 3, 3, 1, 5, 1, 6, 5, 3, 10]
RS_PARITY_TRANSFORM = [7, 3, 3, 1, 3, 0, 4, 4, 6, 4]
RS_PARITY_FILLER = [2, 9, 0, 4, 0, 0, 0, 0, 0, 0]
RS_SYSTEMATIC = [2, 9, 0, 4, 1, 7, 3, 2, 0, 5]
RS_RECEIVED = [1, 9, 0, 4, 1, 7, 3, 2, 0, 10]
RS_RECEIVED_TRANSFORM = [4, 7, 3, 1, 2, 6, 4, 7, 5, 4]
RS_SIGMA = [6, 4, 1]
RS_EXTENDED = [4, 7, 3, 1, 0, 5, 2, 6, 8, 9]
RS_ERROR = [10, 0, 0, 0, 0, 0, 0, 0, 0, 5]

# pinned hermitian values over GF(9)
HERM_ERRORS = {(1, 0): 1, (0, 4): 2, (6, 4): 3}
HERM_LOCATOR = [
    "a^2 + a^5*x + a^6*y + x^2",
    "a^5 + x + a^5*y + x*y",
    "a^4 + y^2",
]
HERM_PARITY_IDEAL = [
    "1 + x^4",
    "1 + y + y^3",
    "a^1 + a^2*x + a^5*y + a^3*x^2 + a^6*x*y + a^4*x^3 + a^7*x^2*y + x^3*y",
    (
        "a^5 + a^1*x + a^7*y + a^1*x^2 + a^3*x*y + a^4*y^2 + a^3*x^2*y"
        " + x*y^2 + x^2*y^2"
    ),
]


def _expect(failures, label, got, want):
    if got != want:
        failures.append(f"{label}: got {got!r}, want {want!r}")


def _report(num, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {num}: {status}{timing}", flush=True)
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _row(arr, n):
    return [arr[(i,)] for i in range(n)]


def test_criterion_1_rs_walkthrough_vectors():
    """All ten labeled vectors of the GF(11) walkthrough, exactly, in < 1 s."""
    t0 = time.perf_counter()
    failures = []
    spec = rs_preset()
    field = spec.field

    info = dict(zip(spec.info_positions(), RS_INFO))
    direct = encode_dual_nonsystematic(spec, dict(info), classic=True)
    _expect(failures, "direct codeword", [direct[pt] for pt in spec.psi], RS_DIRECT)

    info_hat = dft(field, include(info, field.q, 1), 1)
    _expect(failures, "information transform", _row(info_hat, 10), RS_INFO_TRANSFORM)

    parity_hat = extend(spec.gb_phi, restrict_a(info_hat, spec.r_set))
    _expect(failures, "parity transform", _row(parity_hat, 10), RS_PARITY_TRANSFORM)

    filler = idft(field, parity_hat, 1)
    _expect(
        failures,
        "parity filler",
        [field.neg(filler[(i,)]) for i in range(10)],
        RS_PARITY_FILLER,
    )

    systematic = encode_systematic(spec, info)
    _expect(failures, "systematic", [systematic[pt] for pt in spec.psi], RS_SYSTEMATIC)

    received = dict(zip(spec.psi, RS_RECEIVED))
    syn = syndrome_array(spec, received)
    _expect(failures, "received transform", _row(syn, 10), RS_RECEIVED_TRANSFORM)

    locator = bms(spec, {a: syn[a] for a in spec.r_set})
    _expect(failures, "locator count", len(locator.polys), 1)
    _expect(
        failures,
        "sigma",
        [locator.polys[0].coeff((l,)) for l in range(3)],
        RS_SIGMA,
    )

    extended = extend(locator, {a: syn[a] for a in locator.footprint})
    _expect(failures, "extended syndromes", _row(extended, 10), RS_EXTENDED)

    result = decode(spec, received)
    _expect(failures, "decode status", result.status, "corrected")
    if result.status == "corrected":
        _expect(failures, "error", [result.error[pt] for pt in spec.psi], RS_ERROR)
        _expect(
            failures,
            "corrected",
            [result.codeword[pt] for pt in spec.psi],
            RS_SYSTEMATIC,
        )

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _report(1, failures, elapsed)


def test_criterion_2_hermitian_three_error_locator():
    """The pinned 3-error pattern yields exactly the pinned locator basis."""
    t0 = time.perf_counter()
    failures = []
    spec = hermitian_preset()
    work = {pt: HERM_ERRORS.get(pt, 0) for pt in spec.psi}
    result = decode(spec, work)
    _expect(failures, "status", result.status, "corrected")
    if result.status == "corrected":
        _expect(failures, "locator", result.locator.describe(), HERM_LOCATOR)
        _expect(failures, "codeword", set(result.codeword.values()), {0})
        _expect(
            failures,
            "errors",
            {pt: v for pt, v in result.error.items() if v},
            HERM_ERRORS,
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _report(2, failures, elapsed)


def test_criterion_3_parity_point_ideal():
    """Vanishing ideal of the 9 parity points: four pinned polynomials,
    footprint exactly the weight-bounded exponent set R, |R| = 9."""
    failures = []
    spec = hermitian_preset()
    gb = vanishing_ideal_gb(spec.field, spec.order, HERMITIAN_PHI)
    _expect(failures, "basis", gb.describe(), HERM_PARITY_IDEAL)
    bounded = {
        (r1, r2)
        for r1 in range(4)
        for r2 in range(3)
        if 3 * r1 + 4 * r2 <= 11 and r2 <= 2
    }
    _expect(failures, "R size", len(bounded), 9)
    _expect(failures, "R", set(spec.r_set), bounded)
    _expect(failures, "footprint", set(gb.footprint), bounded)
    _report(3, failures)


def test_criterion_4_distance_bounds():
    """Order bound 7 for the hermitian preset, 5 for the reed-solomon
    preset, the latter equal to the brute-force minimum distance."""
    failures = []
    _expect(failures, "hermitian bound", feng_rao_bound(hermitian_preset()), 7)
    rs = rs_preset()
    _expect(failures, "rs bound", feng_rao_bound(rs), 5)
    _expect(failures, "rs true distance", min_distance_bruteforce(rs), 5)
    _report(4, failures)


def test_criterion_5_transform_properties():
    """Transform and recurrence identities, each on >= 500 random trials
    (or exhaustively where the domain is small enough)."""
    failures = []
    rng = random.Random(20260823)

    # Fourier inversion both directions, 500 arrays per size
    for q, nvars in ((11, 1), (9, 2), (8, 2)):
        field = field_for(q)
        box = domain_points(q, nvars)
        bad = 0
        for _ in range(500):
            arr = {e: rng.randrange(q) for e in box}
            if idft(field, dft(field, arr, nvars), nvars) != arr:
                bad += 1
            if dft(field, idft(field, arr, nvars), nvars) != arr:
                bad += 1
        if bad:
            failures.append(f"fourier inversion failed {bad}x for q={q}, N={nvars}")

    # extensions of footprint seeds transform to arrays vanishing off psi,
    # checked at every point of the complement
    spec = hermitian_preset()
    off_psi = sorted(set(domain_points(9, 2)) - set(spec.psi))
    _expect(failures, "off-psi size", len(off_psi), 64 - 24)
    leaks = 0
    for _ in range(500):
        seed = {s: rng.randrange(9) for s in spec.footprint}
        full = idft(spec.field, extend(spec.gb, seed), 2)
        if any(full[pt] != 0 for pt in off_psi):
            leaks += 1
    if leaks:
        failures.append(f"vanish-off-psi failed {leaks}x")

    # power sums invert the seed-to-point-values map
    field = spec.field
    torus = domain_points(9, 2)
    bad = 0
    for _ in range(500):
        pts = rng.sample(torus, rng.randrange(1, 7))
        gb = vanishing_ideal_gb(field, spec.order, pts)
        seed = {s: rng.randrange(9) for s in gb.footprint}
        values = c_map(gb, seed, onto=pts)
        if c_inverse(field, values, sorted(gb.footprint)) != seed:
            bad += 1
    if bad:
        failures.append(f"c_inverse . c_map != id {bad}x")

    # power-sum seeds extend to the full power-sum array
    bad = 0
    for _ in range(500):
        pts = rng.sample(torus, rng.randrange(1, 6))
        gb = vanishing_ideal_gb(field, spec.order, pts)
        values = {pt: rng.randrange(1, 9) for pt in pts}
        truth = c_inverse(field, values, torus)
        if extend(gb, {s: truth[s] for s in gb.footprint}) != truth:
            bad += 1
    if bad:
        failures.append(f"power-sum extension failed {bad}x")

    # evaluation is the transpose of the power-sum map, full 24x24 grid
    exps = sorted(spec.footprint, key=spec.order.key)
    for s in exps:
        col = ev(field, {s: 1}, spec.psi)
        for pt in spec.psi:
            if col[pt] != c_inverse(field, {pt: 1}, [s])[s]:
                failures.append(f"transpose mismatch at {s}, {pt}")
                break

    # extension result does not depend on the fill schedule
    bad = 0
    for _ in range(500):
        pts = rng.sample(torus, rng.randrange(1, 7))
        gb = vanishing_ideal_gb(field, spec.order, pts)
        seed = {s: rng.randrange(9) for s in gb.footprint}
        if extend(gb, seed, rng=rng) != extend(gb, seed):
            bad += 1
    if bad:
        failures.append(f"schedule dependence {bad}x")

    _report(5, failures)


def test_criterion_6_rs_exhaustive_decoding():
    """Reed-solomon preset: every <= 2 error pattern over all values, every
    <= 4 erasure pattern, every mixed pattern with erasures + 2 errors <= 4,
    all decoded back to the transmitted codeword in < 5 min."""
    t0 = time.perf_counter()
    failures = []
    spec = rs_preset()
    cw = dict(zip(spec.psi, RS_SYSTEMATIC))
    count = 0

    def run(work, erasures=()):
        nonlocal count
        count += 1
        res = decode(spec, work, erasures=erasures)
        if res.status != "corrected" or res.codeword != cw:
            failures.append(
                f"pattern #{count} erasures={erasures} not corrected ({res.status})"
            )

    for i in range(10):
        for v in range(1, 11):
            work = dict(cw)
            work[spec.psi[i]] = (work[spec.psi[i]] + v) % 11
            run(work)
    for i, j in combinations(range(10), 2):
        for v, w in product(range(1, 11), repeat=2):
            work = dict(cw)
            work[spec.psi[i]] = (work[spec.psi[i]] + v) % 11
            work[spec.psi[j]] = (work[spec.psi[j]] + w) % 11
            run(work)
    for size in range(1, 5):
        for phi1 in combinations(spec.psi, size):
            work = dict(cw)
            for pt in phi1:
                work[pt] = 0
            run(work, erasures=phi1)
    for e_size in (1, 2):
        for phi1 in combinations(range(10), e_size):
            rest = [i for i in range(10) if i not in phi1]
            for i in rest:
                for v in range(1, 11):
                    work = dict(cw)
                    for j in phi1:
                        work[spec.psi[j]] = 0
                    work[spec.psi[i]] = (work[spec.psi[i]] + v) % 11
                    run(work, erasures=tuple(spec.psi[j] for j in phi1))

    elapsed = time.perf_counter() - t0
    _expect(failures, "pattern count", count, 100 + 4500 + 385 + 900 + 3600)
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, limit 300s")
    _report(6, failures[:10], elapsed)


def test_criterion_7_hermitian_sampled_decoding():
    """Hermitian preset: 1000 random in-bound erasure/error patterns all
    corrected, with the iterative locator equal to the search-based one."""
    failures = []
    spec = hermitian_preset()
    rng = random.Random(77)
    for trial in range(1000):
        cw = random_codeword(spec, rng)
        n_err = rng.randrange(0, 4)
        n_erase = rng.randrange(0, 7 - 2 * n_err)
        pts = rng.sample(spec.psi, n_erase + n_err)
        phi1 = pts[:n_erase]
        work = dict(cw)
        for pt in phi1:
            work[pt] = rng.randrange(9)
        for pt in pts[n_erase:]:
            work[pt] = (work[pt] + rng.randrange(1, 9)) % 9

        res = decode(spec, work, erasures=phi1)
        if res.status != "corrected" or res.codeword != cw:
            failures.append(f"trial {trial}: not corrected ({res.status})")
            continue
        zeroed = dict(work)
        for pt in phi1:
            zeroed[pt] = 0
        syn = syndrome_array(spec, zeroed)
        oracle = locator_oracle(
            spec, {a: syn[a] for a in spec.r_set}, phi1=phi1
        )
        if oracle is None or oracle.polys != res.locator.polys:
            failures.append(f"trial {trial}: locator routes disagree")
    _report(7, failures[:10])


def test_criterion_8_operation_counts():
    """Fast/naive transform op ratio falls as the box grows (4 sizes) and
    decode op counts stay within a 2x envelope of the d*n^2 + n*q shape."""
    failures = []
    ratios = [row["ratio"] for row in dft_rows(DEFAULT_DFT_SIZES, seed=0)]
    _expect(failures, "size count", len(ratios), 4)
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        failures.append(f"ratios not decreasing: {ratios}")
    scaled = [row["scaled"] for row in decode_rows(DEFAULT_DECODE_PRIMES, seed=1)]
    if max(scaled) / min(scaled) >= 2.0:
        failures.append(f"scaled op counts outside 2x envelope: {scaled}")
    _report(8, failures)


def test_criterion_9_demo_transcripts():
    """Both demos exit 0, are byte-stable, and embed the pinned vectors and
    bases of criteria 1-3."""
    failures = []
    outputs = {}
    for name in ("rs", "hermitian"):
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["demo", name])
            _expect(failures, f"{name} exit", rc, 0)
            runs.append(buf.getvalue())
        if runs[0] != runs[1] or runs[0] != transcript(name):
            failures.append(f"{name} transcript not byte-stable")
        outputs[name] = runs[0]

    rs_out = outputs["rs"]
    for label, vec in (
        ("direct", RS_DIRECT),
        ("transform", RS_INFO_TRANSFORM),
        ("parity transform", RS_PARITY_TRANSFORM),
        ("filler", RS_PARITY_FILLER),
        ("systematic", RS_SYSTEMATIC),
        ("received", RS_RECEIVED),
        ("received transform", RS_RECEIVED_TRANSFORM),
        ("sigma", RS_SIGMA),
        ("extended", RS_EXTENDED),
        ("error", RS_ERROR),
    ):
        row = " ".join(str(v) for v in vec)
        if row not in rs_out:
            failures.append(f"rs transcript misses {label} row")

    herm_out = outputs["hermitian"]
    for line in HERM_LOCATOR + HERM_PARITY_IDEAL:
        if line not in herm_out:
            failures.append(f"hermitian transcript misses {line!r}")
    for line in (
        "designed distance (order bound): 7",
        "footprint of the parity ideal equals R: yes",
        "errors injected: (1,0)=1 (0,4)=2 (6,4)=3",
    ):
        if line not in herm_out:
            failures.append(f"hermitian transcript misses {line!r}")
    _report(9, failures)


CRITERIA = (
    test_criterion_1_rs_walkthrough_vectors,
    test_criterion_2_hermitian_three_error_locator,
    test_criterion_3_parity_point_ideal,
    test_criterion_4_distance_bounds,
    test_criterion_5_transform_properties,
    test_criterion_6_rs_exhaustive_decoding,
    test_criterion_7_hermitian_sampled_decoding,
    test_criterion_8_operation_counts,
    test_criterion_9_demo_transcripts,
)


def main() -> int:
    ok = True
    for fn in CRITERIA:
        try:
            fn()
        except AssertionError as ex:
            ok = False
            print(ex)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
