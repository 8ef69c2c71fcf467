"""Affine variety codes on the torus and their dual-code encoders.

A code spec fixes the evaluation point set Psi, the monomial order, and the
exponent set R inside Psi's footprint.  The primal code evaluates R-supported
coefficient arrays at Psi; the dual code is its parity kernel, encoded
either through the inverse-transform isomorphism or systematically by
treating the parity positions as erasures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .field import Field, build_field, count_ops
from .groebner import GroebnerBasis, normal_form, vanishing_ideal_gb
from .orders import MonomialOrder, n0_prefix, vec_add, vec_wrap
from .poly import Poly
from .recurrence import c_inverse, c_map, ev
from .transform import domain_points, eval_poly_vector
# unused here; kept so the benchmark's span recorder finds codes.dft
from .transform import dft  # noqa: F401


class CodeSpecError(ValueError):
    pass


@dataclass(frozen=True)
class CodeSpec:
    field: Field
    order: MonomialOrder
    psi: tuple[tuple[int, ...], ...]
    r_set: tuple[tuple[int, ...], ...]
    gb: GroebnerBasis
    n: int
    k: int
    phi: tuple[tuple[int, ...], ...] | None = None
    gb_phi: GroebnerBasis | None = None
    name: str = ""

    @property
    def footprint(self) -> frozenset:
        return self.gb.footprint

    def info_positions(self) -> tuple[tuple[int, ...], ...]:
        if self.phi is None:
            raise CodeSpecError("code spec has no systematic position set")
        phi = set(self.phi)
        return tuple(pt for pt in self.psi if pt not in phi)

    def syndrome_is_prefix(self) -> bool:
        """True when R is an initial segment of N_0^N under the order."""
        return self._r_is_prefix

    @cached_property
    def _r_is_prefix(self) -> bool:
        # computed once per spec: every decode asks twice
        return set(self.r_set) == set(n0_prefix(self.order, len(self.r_set)))

    @cached_property
    def pair_table(self) -> PairTable:
        """The well-behaving pairs shared by the order bound and the decoder."""
        return PairTable(self)


def make_code(
    field: Field,
    order: MonomialOrder,
    psi,
    r_set=None,
    weight_cutoff: int | None = None,
    phi=None,
    name: str = "",
) -> CodeSpec:
    """Build a code spec; exactly one of r_set / weight_cutoff selects R."""
    gb = vanishing_ideal_gb(field, order, psi)
    points = gb.points
    if (r_set is None) == (weight_cutoff is None):
        raise CodeSpecError("give exactly one of r_set or weight_cutoff")
    if weight_cutoff is not None:
        r = [s for s in gb.footprint if order.weight(s) <= weight_cutoff]
    else:
        r = [tuple(s) for s in r_set]
        if len(set(r)) != len(r):
            raise CodeSpecError("duplicate exponents in R")
        bad = [s for s in r if s not in gb.footprint]
        if bad:
            raise CodeSpecError(f"R exponents {bad} outside the footprint")
    r = tuple(sorted(r, key=order.key))
    n = len(points)
    spec_phi = None
    gb_phi = None
    if phi is not None:
        spec_phi = tuple(tuple(pt) for pt in phi)
        if not set(spec_phi) <= set(points):
            raise CodeSpecError("systematic positions must lie inside psi")
        gb_phi = vanishing_ideal_gb(field, order, spec_phi)
        if gb_phi.footprint != set(r):
            raise CodeSpecError(
                "systematic position footprint does not match R "
                f"({sorted(gb_phi.footprint)} vs {sorted(r)})"
            )
    return CodeSpec(
        field=field,
        order=order,
        psi=points,
        r_set=r,
        gb=gb,
        n=n,
        k=n - len(r),
        phi=spec_phi,
        gb_phi=gb_phi,
        name=name,
    )


# -- vector <-> dict forms (canonical position order = sorted point tuples)


def to_vector(spec: CodeSpec, cw: dict) -> list[int]:
    return [cw[pt] for pt in spec.psi]


def from_vector(spec: CodeSpec, values) -> dict:
    values = list(values)
    if len(values) != spec.n:
        raise CodeSpecError(f"expected {spec.n} values, got {len(values)}")
    return dict(zip(spec.psi, values))


# -- encoders


def encode_primal(spec: CodeSpec, h: dict) -> dict:
    """Evaluate an R-supported coefficient array at every code position."""
    h = {tuple(s): v for s, v in h.items()}
    if not set(h) <= set(spec.r_set):
        raise CodeSpecError("primal message support must lie in R")
    return ev(spec.field, h, spec.psi)


def encode_dual_nonsystematic(spec: CodeSpec, h: dict, classic: bool = False) -> dict:
    """Encode a message supported on the footprint minus R into the dual code.

    The default path runs the inverse-transform isomorphism (extend, inverse
    DFT, restrict).  classic=True uses the plain substitution convention
    c_w = h(w^-1) instead, which differs by the (-1)^N factor and requires
    psi to be the full torus.
    """
    h = {tuple(s): v for s, v in h.items()}
    message_support = set(spec.footprint) - set(spec.r_set)
    if not set(h) <= message_support:
        raise CodeSpecError("dual message support must avoid R")
    if classic:
        if len(spec.psi) != (spec.field.q - 1) ** spec.order.nvars:
            raise CodeSpecError("classic convention needs psi = full torus")
        full = eval_poly_vector(spec.field, h, spec.order.nvars)
        return {pt: full[pt] for pt in spec.psi}
    seed = {s: h.get(s, 0) for s in spec.footprint}
    return c_map(spec.gb, seed, onto=spec.psi)


def encode_systematic(spec: CodeSpec, info: dict) -> dict:
    """Systematic dual-code encoding: info values stay at their positions.

    The parity values are minus the transform isomorphism applied to the
    syndrome of the information part, i.e. the parity positions are decoded
    as erasures.
    """
    if spec.phi is None:
        raise CodeSpecError("systematic encoding needs a position set phi")
    info = {tuple(pt): v for pt, v in info.items()}
    if set(info) != set(spec.info_positions()):
        raise CodeSpecError("info must cover exactly the non-parity positions")
    field = spec.field
    seed = c_inverse(field, info, spec.r_set)
    parity = c_map(spec.gb_phi, seed, onto=spec.phi)
    cw = dict(info)
    for pt, v in parity.items():
        cw[pt] = field.neg(v)
    residue = parity_check(spec, cw)
    if any(v != 0 for v in residue.values()):
        raise CodeSpecError("systematic encoding failed its parity check")
    return cw


def parity_check(spec: CodeSpec, cw: dict) -> dict:
    """Power-sum syndrome of a word over the exponents of R."""
    cw = {tuple(pt): v for pt, v in cw.items()}
    if set(cw) != set(spec.psi):
        raise CodeSpecError("word must cover exactly the code positions")
    return c_inverse(spec.field, cw, spec.r_set)


def is_codeword(spec: CodeSpec, cw: dict) -> bool:
    return all(v == 0 for v in parity_check(spec, cw).values())


def random_codeword(spec: CodeSpec, rng: random.Random) -> dict:
    h = {s: rng.randrange(spec.field.q) for s in set(spec.footprint) - set(spec.r_set)}
    return encode_dual_nonsystematic(spec, h)


# -- distance bounds


class PairTable:
    """One-way well-behaving pairs of a code's footprint, found on demand.

    rho(a, b) is the leading monomial of the normal form of x^(a+b) modulo
    the vanishing ideal; (a, b) is one-way well-behaving when every footprint
    a' before a keeps rho(a', b) strictly before rho(a, b).  Each b walks
    its a in the monomial order and stops once its largest rho so far
    reaches the limit asked for: the rho of its well-behaving pairs rise
    along the walk, so every later one lies past the limit.  A later,
    larger limit resumes the walk.
    Normal forms are cached per box exponent.  Both are properties of the
    code, built in count_ops scopes of their own, so no count of a caller
    depends on which call built them.
    """

    def __init__(self, spec: CodeSpec):
        self.gb, self.order = spec.gb, spec.order
        self.footprint = sorted(spec.footprint, key=spec.order.key)
        self._nf: dict[tuple[int, ...], tuple] = {}
        # per b: the index of its next a, and the key of its largest rho
        self._walk = {b: (0, None) for b in self.footprint}
        self._pairs: dict[tuple[int, ...], list] = {}
        self._reach = None  # order key up to which _pairs is complete

    def normal_form(self, e: tuple[int, ...]) -> tuple:
        """((m, c), ...): the normal form of x^e for e in N_0^N, leading term first."""
        return self._entry(e)[0]

    def _entry(self, e: tuple[int, ...]) -> tuple:
        """(normal form of x^e, the order key of its leading monomial)."""
        box = vec_wrap(e, self.gb.q - 1)
        got = self._nf.get(box)
        if got is None:
            with count_ops():
                nf = normal_form(Poly(self.gb.field, {box: 1}), self.gb)
            key = self.order.key
            terms = tuple(sorted(nf.terms.items(), key=lambda t: key(t[0]), reverse=True))
            got = self._nf[box] = (terms, key(terms[0][0]))
        return got

    def pairs_at(self, k: tuple[int, ...]) -> list:
        """Every well-behaving pair (a, b) with rho(a, b) = k."""
        limit = self.order.key(k)
        if self._reach is None or self._reach < limit:
            with count_ops():
                self._advance(limit)
            self._reach = limit
        return self._pairs.get(k, [])

    def _advance(self, limit) -> None:
        S = self.footprint
        for b, (i, top) in self._walk.items():
            while i < len(S) and (top is None or top < limit):
                terms, rk = self._entry(vec_add(S[i], b))
                if top is None or top < rk:
                    self._pairs.setdefault(terms[0][0], []).append((S[i], b))
                    top = rk
                i += 1
            self._walk[b] = (i, top)


def feng_rao_bound(spec: CodeSpec) -> int:
    """Order bound on the dual minimum distance via one-way well-behaving pairs.

    The bound is the least pair count nu(s) = |{(a, b): rho(a, b) = s}|
    (PairTable) over s outside R; when R fills the footprint the sentinel
    n+1 is returned.
    """
    r_set = set(spec.r_set)
    targets = [s for s in spec.footprint if s not in r_set]
    if not targets:
        return spec.n + 1
    return min(len(spec.pair_table.pairs_at(s)) for s in targets)


# -- presets


@lru_cache(maxsize=None)
def rs_preset() -> CodeSpec:
    """[10, 6] Reed-Solomon over GF(11) with four parity positions."""
    field = build_field(11)
    order = MonomialOrder((1,))
    psi = domain_points(11, 1)
    phi = [(0,), (1,), (2,), (3,)]
    return make_code(field, order, psi, weight_cutoff=3, phi=phi, name="rs")


def hermitian_curve_points(field: Field) -> list[tuple[int, int]]:
    """Torus points of x^(s+1) = y^s + y for q = s^2."""
    if field.m % 2:
        raise CodeSpecError(
            f"the Hermitian curve needs a square field order, not {field.q}"
        )
    s = field.p ** (field.m // 2)
    pts = []
    for i in range(field.q - 1):
        for j in range(field.q - 1):
            lhs = field.pow(field.exp_alpha(i), s + 1)
            rhs = field.add(field.pow(field.exp_alpha(j), s), field.exp_alpha(j))
            if lhs == rhs:
                pts.append((i, j))
    return pts


HERMITIAN_PHI = (
    (1, 0),
    (1, 1),
    (1, 3),
    (3, 0),
    (3, 1),
    (3, 3),
    (5, 0),
    (5, 1),
    (7, 0),
)


@lru_cache(maxsize=None)
def hermitian_preset() -> CodeSpec:
    """[24, 15] dual code on the Hermitian curve over GF(9)."""
    field = build_field(3, 2, modulus=(2, 1, 1), alpha=3)
    order = MonomialOrder((field.p, field.p + 1), ((1, 1),))
    psi = hermitian_curve_points(field)
    return make_code(
        field,
        order,
        psi,
        weight_cutoff=11,
        phi=HERMITIAN_PHI,
        name="hermitian",
    )
