"""Independent reference computations that the tests check the library by.

locator_oracle() finds the error locator by a global search over candidate
footprints with dense linear algebra and no iteration; it shares with bms()
only the certification rule and the solve and variety-scan kernels.
min_distance_bruteforce() finds a dual code's minimum distance by
enumerating its codewords.
"""

from __future__ import annotations

import math
from itertools import product

from avcodes.codes import (
    CodeSpec,
    CodeSpecError,
    encode_dual_nonsystematic,
    feng_rao_bound,
    to_vector,
)
from avcodes.decoder import _monic, _pivot_system, _variety, solve_affine
from avcodes.field import count_ops
from avcodes.groebner import (
    GroebnerBasis,
    minimal_generators,
    monomial_columns,
    vanishing_ideal_gb,
)

# -- the search-based locator oracle

FREE_CAP = 8
MEMBER_CAP = 6561


def downsets(nvars: int, max_size: int, base: frozenset = frozenset()):
    """All order ideals of N_0^N containing `base`, by size then lexically."""
    if len(base) > max_size:
        return
    seen = {base}
    frontier = [base]
    yield base
    while frontier:
        grown = set()
        for d in frontier:
            for t in minimal_generators(d, nvars):
                d2 = d | {t}
                if len(d2) <= max_size and d2 not in seen:
                    seen.add(d2)
                    grown.add(d2)
        frontier = sorted(grown, key=lambda d: tuple(sorted(d)))
        yield from frontier


def certify(spec: CodeSpec, syndrome: dict, phi1, delta: set) -> GroebnerBasis | None:
    """Certified locator basis on the footprint `delta`, or None.

    Solves, pivot by pivot, the affine family of monic polynomials whose
    shifts annihilate the known syndromes and which vanish on the erasures;
    a member certifies when its variety inside Psi has exactly |delta|
    points, contains the erasures, and interpolates back to the same
    footprint.  Pivots outside the footprint of Psi are skipped.  The family
    is enumerated only up to MEMBER_CAP members over FREE_CAP free
    directions.
    """
    field, order = spec.field, spec.order
    slots = []
    total = 1
    for t in sorted(minimal_generators(delta, order.nvars), key=order.key):
        if t not in spec.footprint:
            continue
        tail = sorted((s for s in delta if order.compare(s, t) < 0), key=order.key)
        rows, rhs = _pivot_system(field, syndrome.__getitem__, spec.r_set, t, tail, phi1)
        sol = solve_affine(field, rows, rhs, ncols=len(tail))
        if sol is None or len(sol[1]) > FREE_CAP:
            return None
        total *= field.q ** len(sol[1])
        if total > MEMBER_CAP:
            return None
        slots.append((t, tail, sol[0], sol[1]))

    def members(slot):
        t, tail, part, null = slot
        for vals in product(range(field.q), repeat=len(null)):
            coeffs = list(part)
            for v, basis in zip(vals, null):
                if v:
                    coeffs = [
                        field.add(x, field.mul(v, y)) for x, y in zip(coeffs, basis)
                    ]
            yield _monic(t, tail, coeffs)

    best = None
    phi1_set = set(phi1)
    cols = monomial_columns(
        field, {s for t, tail, _p, _n in slots for s in (t, *tail)}, spec.psi
    )
    for combo in product(*[list(members(s)) for s in slots]):
        variety = _variety(field, combo, cols, spec.psi)
        if len(variety) != len(delta) or not phi1_set <= set(variety):
            continue
        gbv = vanishing_ideal_gb(field, order, variety)
        if set(gbv.footprint) != delta:
            continue
        key = tuple(variety)
        if best is None or key < best[0]:
            best = (key, gbv)
    return best[1] if best else None


def locator_oracle(spec: CodeSpec, syndrome: dict, phi1=()) -> GroebnerBasis | None:
    """Independent locator search: no iteration, dense linear algebra only.

    Enumerates candidate footprints (order ideals containing the erasure
    footprint) by increasing size up to the decoding radius and returns the
    first certified basis; None when nothing within the radius certifies.
    """
    field, order = spec.field, spec.order
    syndrome = {tuple(a): v for a, v in syndrome.items()}
    phi1 = tuple(tuple(p) for p in phi1)
    base = frozenset(vanishing_ideal_gb(field, order, phi1).footprint if phi1 else ())
    with count_ops():
        d = feng_rao_bound(spec)
    cap = max(len(phi1) + max(0, (d - 1 - len(phi1)) // 2), len(base))
    for delta in downsets(order.nvars, cap, base):
        got = certify(spec, syndrome, phi1, set(delta))
        if got is not None:
            return got
    return None


# -- the dual minimum distance by enumeration


def min_distance_bruteforce(spec: CodeSpec) -> int:
    """Exact dual minimum distance by enumerating all q^k codewords."""
    field = spec.field
    k = spec.k
    if k * math.log2(field.q) > 22:
        raise CodeSpecError("message space too large for brute force")
    support = sorted(set(spec.footprint) - set(spec.r_set), key=spec.order.key)
    rows = [to_vector(spec, encode_dual_nonsystematic(spec, {s: 1})) for s in support]
    if field.m == 1:
        return _min_distance_numpy(rows, field.q, spec.n)
    best = spec.n + 1
    for msg in product(range(field.q), repeat=k):
        if not any(msg):
            continue
        w = 0
        for j in range(spec.n):
            acc = 0
            for c, row in zip(msg, rows):
                if c:
                    acc = field.add(acc, field.mul(c, row[j]))
            if acc:
                w += 1
        best = min(best, w)
    return best


def _min_distance_numpy(rows, q: int, n: int) -> int:
    import numpy as np

    G = np.array(rows, dtype=np.int64)
    k = len(rows)
    total = q**k
    powers = q ** np.arange(k, dtype=np.int64)
    best = n + 1
    chunk = 200_000
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = (idx[:, None] // powers) % q
        words = (msgs @ G) % q
        weights = np.count_nonzero(words, axis=1)
        if start == 0:
            weights = weights[1:]  # drop the zero message
        if weights.size:
            best = min(best, int(weights.min()))
    return best
