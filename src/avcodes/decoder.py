"""Erasure-and-error decoding of dual affine variety codes.

decode() runs the pipeline on a received word: syndromes on R by power
sums, locator basis by the multidimensional Berlekamp-Massey iteration
(seeded with the erasure locator, the interpolated vanishing ideal of the
erased points, when erasure positions are known), syndrome extension under
the locator recurrences, error values by inverse DFT, and parity-verified
subtraction.  R must be an initial segment of the monomial order, so no
syndrome constrains a footprint value outside R: a locator footprint that
leaves R is a failure.

On R alone the iteration can leave locator tail coefficients free at half
the order bound, so bms() keeps iterating past R through N_0^N in the
monomial order.  Exponents outside the footprint of Psi take their syndromes
from normal forms modulo I(Psi); footprint exponents take theirs by Feng-Rao
majority voting (Feng & Rao, IEEE T-IT 39(1), 1993), in its erasure-and-error
form when erasures are given (Sakata, Leonard, Jensen & Hoeholdt, IEEE T-IT
44(4), 1998).  The voters are the well-behaving pairs that the order bound
counts, kept once per code on CodeSpec.pair_table.  The walk ends as soon as
the iteration's own basis certifies: its variety inside Psi has exactly
footprint-many points, contains the erasures, and interpolates back to that
footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .codes import CodeSpec, CodeSpecError, parity_check
# unused here; kept so the benchmark's span recorder finds decoder.feng_rao_bound
from .codes import feng_rao_bound  # noqa: F401
from .field import Field
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
from .orders import n0_walk, vec_add, vec_geq, vec_sub
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


# -- the Berlekamp-Massey-Sakata iteration


def _lower_set(point: tuple[int, ...]):
    return product(*[range(c + 1) for c in point])


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


class _Iteration:
    """The BMS iteration, one step per point of the array behind `lookup`.

    Points come in ascending monomial order.  F holds the candidates
    (pivot, terms) of a minimal recurrence basis over the points taken so
    far, delta their footprint, and witnesses the failed candidates kept to
    repair later ones.  A candidate that holds keeps its pivot, which stays
    a minimal generator of the grown footprint; a new pivot is filled by
    repairing a failing candidate with a witness, or else by a dense solve
    over the delta monomials below it, and an infeasible solve forces the
    pivot into the delta set: a tail over any wider support would reduce
    into delta by shifts of the candidates already built, so it cannot
    exist either.  With init the iteration starts from the erasure locator
    basis; every later candidate is a shift or combination of ideal
    members, so the erasure roots stay enforced throughout.
    """

    def __init__(self, field, order, lookup, init=None, phi1=()):
        self.field, self.order, self.lookup, self.phi1 = field, order, lookup, phi1
        if init is not None:
            self.F = [(g.leading_monomial(order), dict(g.terms)) for g in init.polys]
            self.delta = set(init.footprint)
        else:
            origin = (0,) * order.nvars
            self.F = [(origin, {origin: 1})]
            self.delta = set()
        self.witnesses: list[_Witness] = []
        self.processed: list[tuple[int, ...]] = []

    def step(self, k: tuple[int, ...]) -> bool:
        """Take the point k; True when the candidates changed."""
        field, order, lookup, delta = self.field, self.order, self.lookup, self.delta
        self.processed.append(k)
        fails, keep = [], []
        for t, f in self.F:
            d = relation_value(field, lookup, f, t, k) if vec_geq(k, t) else 0
            (fails if d else keep).append((t, f, d) if d else (t, f))
        if not fails:
            return False
        for t, _f, _d in fails:
            delta.update(_lower_set(vec_sub(k, t)))
        guard = 0
        while True:
            guard += 1
            if guard > 4 * len(self.processed) + 16:
                raise RuntimeError("footprint growth failed to stabilize")
            newF, regrow = [], None
            for t2 in sorted(minimal_generators(delta, order.nvars), key=order.key):
                built = next((f for t, f in keep if t == t2), None)
                if built is None:
                    cands = [(t, f, d) for t, f, d in fails if vec_geq(t2, t)]
                    gap = vec_sub(k, t2)
                    usable = [w for w in self.witnesses if vec_geq(w.span, gap)]
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
                    top = order.key(t2)
                    keyed = sorted((order.key(s), s) for s in delta)
                    tail = [s for ks, s in keyed if ks < top]
                    built = _direct_poly(field, lookup, self.processed, t2, tail, self.phi1)
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
            if any(vec_geq(w.span, span) for w in self.witnesses):
                continue
            self.witnesses = [w for w in self.witnesses if not vec_geq(span, w.span)]
            self.witnesses.append(_Witness(span, dict(f), d))
        self.F = newF
        return True

    def revalidate(self) -> None:
        """Raise unless every candidate holds at every point taken."""
        for t, f in self.F:
            for a in self.processed:
                if vec_geq(a, t) and relation_value(self.field, self.lookup, f, t, a) != 0:
                    raise RuntimeError("recurrence basis fails revalidation")


# -- the syndromes past R


def _from_normal_form(field: Field, terms, known: dict) -> int:
    """sum c_m S_m over the normal-form terms (m, c) of a monomial."""
    add, mul = field.tables[:2]
    acc = 0
    for m, c in terms:
        acc = add[acc][mul[c][known[m]]]
    field.charge(len(terms), len(terms))
    return acc


def _vote(spec: CodeSpec, it: _Iteration, known: dict, k: tuple[int, ...]):
    """S_k at a footprint exponent by Feng-Rao majority vote, or None.

    Each well-behaving pair (a, b) with rho(a, b) = k votes unless a lies in
    the current footprint or b under a witness span.  The candidate whose
    pivot t divides x^a fixes S_(a+b) by its relation at a + b.  Read
    through normal forms, every other syndrome in that relation comes
    before k, and S_(a+b) = c*S_k + (known terms), where c*x^k leads the
    normal form of x^(a+b); that gives the pair's value of S_k.  The value
    with the most votes wins; None when no pair is eligible.
    """
    field, table = spec.field, spec.pair_table
    add, mul = field.tables[:2]
    votes: dict[int, int] = {}
    nrest = nlead = 0
    for a, b in table.pairs_at(k):
        if a in it.delta or any(vec_geq(w.span, b) for w in it.witnesses):
            continue
        t, f = next((t, f) for t, f in it.F if vec_geq(a, t))
        lead = rest = 0
        for s, cs in f.items():
            for m, c in table.normal_form(vec_add(vec_sub(a, t), vec_add(s, b))):
                if m == k:
                    lead = mul[cs][c]
                    nlead += 1
                else:
                    rest = add[rest][mul[mul[cs][c]][known[m]]]
                    nrest += 1
        value = field.neg(field.div(rest, lead))
        votes[value] = votes.get(value, 0) + 1
    field.charge(nrest, 2 * nrest + nlead)
    return max(votes, key=votes.get) if votes else None


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


def _certified(spec: CodeSpec, it: _Iteration) -> GroebnerBasis | None:
    """The reduced basis of the located positions when F certifies, or None.

    F certifies when its variety V inside Psi has |delta| points, holds the
    erasures, and interpolates back to the footprint delta.  Candidates
    with pivots outside the footprint of Psi are left out: the locator
    ideal is I(Psi) plus its members with pivots inside that footprint, so
    the variety inside Psi is the same.
    """
    field = spec.field
    polys = [f for t, f in it.F if t in spec.footprint]
    cols = monomial_columns(field, {s for f in polys for s in f}, spec.psi)
    variety = _variety(field, polys, cols, spec.psi)
    if len(variety) != len(it.delta) or not set(it.phi1) <= set(variety):
        return None
    gbv = vanishing_ideal_gb(field, spec.order, variety)
    return gbv if gbv.footprint == it.delta else None


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
    iteration starts from the erasure locator basis.  After R the
    iteration walks on through N_0^N in the monomial order: an exponent
    outside the footprint of Psi takes its syndrome from the normal form of
    its monomial, a footprint exponent by majority vote (_vote).  The
    certified basis is returned as soon as the candidates certify: at the
    first point past R, and after every later step that changes them.  The
    walk stops uncertified when the footprint outgrows (|R| + |phi1|) // 2
    (no pattern within the radius gets there, as d* <= |R| + 1), when no
    pair can vote, or past twice the largest footprint weight; the raw
    iteration basis is then returned, and the verdict left to downstream
    consistency checks.
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
    known: dict[tuple[int, ...], int] = {}
    it = _Iteration(field, order, known.__getitem__, init, phi1)
    walk = n0_walk(order)
    for k in islice(walk, len(spec.r_set)):
        known[k] = syndrome[k]
        it.step(k)

    cap = (len(spec.r_set) + len(phi1)) // 2
    last = 2 * max(order.weight(s) for s in spec.footprint)
    changed = True
    for k in walk:
        if changed:
            cert = _certified(spec, it)
            if cert is not None:
                return cert
            if len(it.delta) > cap:
                break
        if order.weight(k) > last:
            break
        if k in spec.footprint:
            value = _vote(spec, it, known, k)
            if value is None:
                break
        else:
            value = _from_normal_form(field, spec.pair_table.normal_form(k), known)
        known[k] = value
        changed = it.step(k)
    it.revalidate()
    F = sorted(it.F, key=lambda p: order.key(p[0]))
    return GroebnerBasis(
        field,
        order,
        q,
        tuple(Poly(field, f) for _t, f in F),
        tuple(t for t, _f in F),
        frozenset(it.delta),
    )


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
