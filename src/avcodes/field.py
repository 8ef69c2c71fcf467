"""Finite field arithmetic over GF(p^m) with table-driven operations.

Elements are plain ints in [0, q).  For m == 1 the int is the residue mod p;
for m > 1 it packs the coefficient vector of the residue polynomial in base p
(constant term in the lowest digit).  All arithmetic goes through lookup
tables built once at construction, so hot loops can stay in int land.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tally of field operations executed inside a count_ops() scope."""

    addsub: int = 0
    muldiv: int = 0

    def total(self) -> int:
        return self.addsub + self.muldiv


_ACTIVE: ContextVar[OpCounter | None] = ContextVar("avcodes_op_counter", default=None)


@contextmanager
def count_ops():
    """Collect field-op tallies for the enclosed block.

    Scopes are confined to the current thread/task via a context variable;
    nested scopes shadow outer ones (the outer scope does not see inner ops).
    """
    counter = OpCounter()
    token = _ACTIVE.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE.reset(token)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over GF(p), coefficient tuples with constant term first


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(tuple(out))


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        a = list(_poly_trim(tuple(a)))
        if len(a) - 1 < dm or not a:
            break
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * c) % p
        a = a[:-1]
    return _poly_trim(tuple(a))


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for packed in range(p**d):
            tail = tuple((packed // p**i) % p for i in range(d))
            divisor = tail + (1,)
            if not _poly_mod(m, divisor, p):
                return False
    return True


def _pack(coeffs: tuple[int, ...], p: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _unpack(v: int, p: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(v % p)
        v //= p
    return tuple(out)


class Field:
    """GF(p^m) with exp/log and full addition/multiplication tables."""

    __slots__ = (
        "p",
        "m",
        "q",
        "modulus",
        "alpha",
        "_exp",
        "_log",
        "_add",
        "_mul",
        "_neg",
        "_inv",
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None, alpha: int | None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**m
        if q > 1024:
            raise ValueError(f"field size {q} exceeds the table-driven limit 1024")
        self.p = p
        self.m = m
        self.q = q

        if m == 1:
            if modulus is not None:
                raise ValueError("modulus is only meaningful for m > 1")
            self.modulus = None
        else:
            if modulus is None:
                modulus = self._default_modulus()
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
            self.modulus = modulus

        self._build_mul_add_tables()
        if alpha is None:
            alpha = self._default_alpha()
        if not (0 < alpha < q):
            raise ValueError("alpha out of range")
        if self._order(alpha) != q - 1:
            raise ValueError(f"alpha {alpha} is not primitive")
        self.alpha = alpha
        self._build_exp_log()

    # -- construction internals

    def _default_modulus(self) -> tuple[int, ...]:
        # least packed tail value whose monic polynomial is irreducible
        p, m = self.p, self.m
        for packed in range(p**m):
            tail = tuple((packed // p**i) % p for i in range(m))
            cand = tail + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise ValueError("no irreducible modulus found")  # pragma: no cover

    def _raw_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        prod = _poly_mul(_unpack(a, p, m), _unpack(b, p, m), p)
        return _pack(_poly_mod(prod, self.modulus, p), p)

    def _build_mul_add_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        if m == 1:
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._neg = [(-a) % p for a in range(q)]
        else:
            self._add = [
                [
                    _pack(
                        tuple((x + y) % p for x, y in zip(_unpack(a, p, m), _unpack(b, p, m))),
                        p,
                    )
                    for b in range(q)
                ]
                for a in range(q)
            ]
            self._neg = [_pack(tuple((-x) % p for x in _unpack(a, p, m)), p) for a in range(q)]
        self._mul = [[self._raw_mul(a, b) for b in range(q)] for a in range(q)]

    def _order(self, a: int) -> int:
        x, n = a, 1
        while x != 1:
            x = self._mul[x][a]
            n += 1
            if n > self.q:
                raise ValueError("element order runaway")  # pragma: no cover
        return n

    def _default_alpha(self) -> int:
        for a in range(1, self.q):
            if self._order(a) == self.q - 1:
                return a
        raise ValueError("no primitive element found")  # pragma: no cover

    def _build_exp_log(self) -> None:
        self._exp = [1] * (self.q - 1)
        self._log = [-1] * self.q
        x = 1
        for i in range(self.q - 1):
            self._exp[i] = x
            self._log[x] = i
            x = self._mul[x][self.alpha]
        self._inv = [0] * self.q
        for v in range(1, self.q):
            self._inv[v] = self._exp[(self.q - 1 - self._log[v]) % (self.q - 1)]

    # -- arithmetic (counted)

    def add(self, a: int, b: int) -> int:
        c = _ACTIVE.get()
        if c is not None:
            c.addsub += 1
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        c = _ACTIVE.get()
        if c is not None:
            c.addsub += 1
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        c = _ACTIVE.get()
        if c is not None:
            c.addsub += 1
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        c = _ACTIVE.get()
        if c is not None:
            c.muldiv += 1
        return self._mul[a][b]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by the zero field element")
        c = _ACTIVE.get()
        if c is not None:
            c.muldiv += 1
        return self._mul[a][self._inv[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("the zero field element has no inverse")
        c = _ACTIVE.get()
        if c is not None:
            c.muldiv += 1
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of the zero field element")
        c = _ACTIVE.get()
        if c is not None:
            c.muldiv += 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ValueError("discrete log of the zero field element")
        return self._log[a]

    def exp_alpha(self, k: int) -> int:
        """alpha**k by table, k taken mod q-1 (not counted: pure index math)."""
        return self._exp[k % (self.q - 1)]

    # -- conveniences

    @property
    def one(self) -> int:
        return 1

    def units(self):
        return range(1, self.q)

    def format(self, v: int, int_form: bool = False) -> str:
        if not (0 <= v < self.q):
            raise ValueError(f"element {v} out of range for GF({self.q})")
        if int_form or self.m == 1:
            return str(v)
        if v == 0:
            return "-1"
        return f"a^{self._log[v]}"

    def parse(self, text: str) -> int:
        text = text.strip()
        if self.m > 1:
            if text == "-1":
                return 0
            if text.startswith("a^"):
                return self._exp[int(text[2:]) % (self.q - 1)]
            if text == "a":
                return self.alpha
        v = int(text)
        if not (0 <= v < self.q):
            raise ValueError(f"element {text!r} out of range for GF({self.q})")
        return v

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
            and self.alpha == other.alpha
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus, self.alpha))


def build_field(
    p: int,
    m: int = 1,
    modulus: tuple[int, ...] | list[int] | None = None,
    alpha: int | str | None = None,
) -> Field:
    """Construct GF(p^m).

    modulus: coefficients of the defining polynomial, constant term first,
    monic of degree m; defaults to the least irreducible one (by packed
    value of the non-leading coefficients).  alpha: a primitive element,
    as packed int or text form; defaults to the least element of full order.
    """
    mod = tuple(modulus) if modulus is not None else None
    if isinstance(alpha, str):
        tmp = Field(p, m, mod, None)
        alpha = tmp.parse(alpha)
    return Field(p, m, mod, alpha)
