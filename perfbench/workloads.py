"""Codes and seeded operation streams of the encode/decode benchmark.

Every workload runs one one-point Hermitian code x^(s+1) = y^s + y over
GF(s^2), with weights (s, s+1) and tie-break ((1, 1),), built the way the
ROADMAP ladder describes.  An operation encodes a seeded random message,
corrupts the codeword with e errors and r erasures, and decodes it.  The
(e, r) mix is given as strata: each block of operations visits every
stratum once, in a seeded order, and each stratum deals its (e, r) pairs
like a shuffled deck.  Every operation's pattern is still uniform inside
its stratum, but a run of a few blocks holds nearly the exact mix, so its
medians do not move with the seed.

The library is reached only through module attributes (`codes.make_code`,
not a bound import), so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import avcodes.codes as codes
import avcodes.decoder as decoder
import avcodes.field as fieldmod
from avcodes.orders import MonomialOrder


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    m: int
    modulus: tuple[int, ...] | None
    alpha: int | None
    cutoff: int
    n: int
    k: int
    d_star: int  # order bound of the code; patterns keep 2e + r <= d_star - 1
    systematic: bool
    feng_rao_in_setup: bool
    setup_reps: int
    tail_pct: int  # decode_ms_tail percentile; see the note on WORKLOADS
    trace_ops_per_s: float  # traced operations per second of --seconds
    strata: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def s(self) -> int:
        return self.p ** (self.m // 2)


def _herm9_strata(d_star: int) -> tuple:
    # e uniform in 0..3, then r uniform in what 2e + r <= d* - 1 allows
    return tuple(
        tuple((e, r) for r in range(d_star - 1 - 2 * e + 1)) for e in range(4)
    )


def _g16_strata(d_star: int) -> tuple:
    # r uniform in 4..d*-1, then e uniform in 0..(d* - 1 - r) // 2
    return tuple(
        tuple((e, r) for e in range((d_star - 1 - r) // 2 + 1))
        for r in range(4, d_star)
    )


# decode_ms_tail is a fixed percentile per workload: the highest of p99, p98,
# p95, p90 and p85 that keeps at least 10 decodes above it in a 35 s run at
# the parent commit and stays steady across seeds.  On herm9-mixed the 1-3%
# of decodes that reach the certification fallback cost 100-170 ms against
# at most 60 ms for the rest, so p95 and above move with how many of them a
# seed draws; p90 is the steady one.  A 35 s g64-errors run holds about 25
# decodes, so its tail is the median.
WORKLOADS = {
    w.name: w
    for w in (
        # Small box (64): per-call glue, bms and certification; 1-3% of its
        # decodes reach the certification fallback, more than elsewhere.
        Workload(
            name="herm9-mixed",
            p=3,
            m=2,
            modulus=(2, 1, 1),
            alpha=3,
            cutoff=11,
            n=24,
            k=15,
            d_star=7,
            systematic=True,
            feng_rao_in_setup=False,
            setup_reps=41,
            tail_pct=90,
            trace_ops_per_s=20.0,
            strata=_herm9_strata(7),
        ),
        # Every decode runs erasure_locator, whose BMS pass over the doubled
        # box is discarded; set-up includes feng_rao_bound.
        Workload(
            name="g16-erasures",
            p=2,
            m=4,
            modulus=None,
            alpha=None,
            cutoff=19,
            n=60,
            k=46,
            d_star=9,
            systematic=False,
            feng_rao_in_setup=True,
            setup_reps=21,
            tail_pct=90,
            trace_ops_per_s=2.2,
            strata=_g16_strata(9),
        ),
        # The same code with errors only: erasure_locator never runs, so an
        # erasure-layer change should not move it, and extend plus the
        # inverse DFT lead decode and encode.  About 1 decode in 900 reaches
        # the fallback and takes 0.4-1.9 s.
        Workload(
            name="g16-errors",
            p=2,
            m=4,
            modulus=None,
            alpha=None,
            cutoff=19,
            n=60,
            k=46,
            d_star=9,
            systematic=False,
            feng_rao_in_setup=False,
            setup_reps=31,
            tail_pct=98,
            trace_ops_per_s=12.0,
            strata=tuple(((e, 0),) for e in range(1, 5)),
        ),
        # extend and the inverse DFT over a 3969 box dominate and
        # erasure_locator never runs.  feng_rao_bound (about 120 s at n = 504)
        # is left out of set-up; d* = 17 is the ROADMAP's value.  Not listed
        # in BENCHMARK.json: one set-up takes about 15 s, a run has room for
        # about 25 decodes, and its medians spread 12-14% between seeds.
        Workload(
            name="g64-errors",
            p=2,
            m=6,
            modulus=None,
            alpha=None,
            cutoff=71,
            n=504,
            k=460,
            d_star=17,
            systematic=False,
            feng_rao_in_setup=False,
            setup_reps=1,
            tail_pct=50,
            trace_ops_per_s=0.3,
            strata=(((6, 0),), ((7, 0),), ((8, 0),)),
        ),
    )
}


def hermitian_points(field, s: int) -> list[tuple[int, int]]:
    """Torus points (dlog pairs) of x^(s+1) = y^s + y over GF(s^2)."""
    q1 = field.q - 1
    lhs = {}
    for i in range(q1):
        lhs.setdefault(field.pow(field.exp_alpha(i), s + 1), []).append(i)
    pts = []
    for j in range(q1):
        y = field.exp_alpha(j)
        for i in lhs.get(field.add(field.pow(y, s), y), ()):
            pts.append((i, j))
    return sorted(pts)


def build_code(w: Workload):
    """Field and code of the workload, built from scratch on every call."""
    field = fieldmod.build_field(w.p, w.m, modulus=w.modulus, alpha=w.alpha)
    order = MonomialOrder((w.s, w.s + 1), ((1, 1),))
    psi = hermitian_points(field, w.s)
    phi = codes.HERMITIAN_PHI if w.systematic else None
    return codes.make_code(
        field, order, psi, weight_cutoff=w.cutoff, phi=phi, name=w.name
    )


@dataclass(frozen=True)
class Op:
    e: int
    r: int
    message: dict
    errors: tuple  # ((position, nonzero offset), ...)
    erasures: tuple  # ((position, received value), ...)

    def received(self, field, codeword: dict) -> dict:
        word = dict(codeword)
        for pt, offset in self.errors:
            word[pt] = field.add(word[pt], offset)
        for pt, value in self.erasures:
            word[pt] = value
        return word

    def erased_positions(self) -> list:
        return [pt for pt, _v in self.erasures]


class OpStream:
    """The seeded operation sequence of one workload on one code."""

    def __init__(self, w: Workload, spec, seed):
        self.w = w
        self.spec = spec
        self.rng = random.Random(f"{w.name}:{seed}")
        self.q = spec.field.q
        if w.systematic:
            self.message_keys = spec.info_positions()
        else:
            self.message_keys = sorted(
                set(spec.footprint) - set(spec.r_set), key=spec.order.key
            )
        self._block: list[int] = []
        self._decks: list[list] = [[] for _ in w.strata]

    def next_op(self) -> Op:
        rng = self.rng
        if not self._block:
            self._block = rng.sample(range(len(self.w.strata)), len(self.w.strata))
        i = self._block.pop()
        if not self._decks[i]:
            self._decks[i] = rng.sample(self.w.strata[i], len(self.w.strata[i]))
        e, r = self._decks[i].pop()
        message = {key: rng.randrange(self.q) for key in self.message_keys}
        positions = rng.sample(self.spec.psi, e + r)
        errors = tuple((pt, rng.randrange(1, self.q)) for pt in positions[:e])
        erasures = tuple((pt, rng.randrange(self.q)) for pt in positions[e:])
        return Op(e, r, message, errors, erasures)


def encode(w: Workload, spec, message: dict) -> dict:
    if w.systematic:
        return codes.encode_systematic(spec, message)
    return codes.encode_dual_nonsystematic(spec, message)

