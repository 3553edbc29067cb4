"""Exact arithmetic in GF(p^e) with canonical integer element encoding.

An element of GF(q), q = p^e, is a plain Python int in [0, q).  Its base-p
digits, least significant first, are the coefficients of the residue
polynomial, so 0 is the additive identity and 1 the multiplicative identity
in every field.  For e > 1 arithmetic is modulo a fixed monic irreducible
polynomial over GF(p), chosen deterministically for each (p, e): the
lexicographically least irreducible, comparing coefficient tuples
low-degree-first.  For e = 1 the modulus is the degree-1 polynomial x and
arithmetic is plain arithmetic mod p.

GF does the field arithmetic, on scalars and on arrays, everywhere but
`linalg.mat_mul`, which sums its products as integers (int64 mod p over
a prime field, else XOR or base-p digits) and reduces them once, since
a (20000 x 91)(91 x 85) product over GF(9) takes 0.14 s that way against
0.42 s as one `vmul` and one `vadd` per inner index (2-vCPU Xeon,
numpy 2.4).
An array of elements has one dtype, the field's `symbol`: the smallest
unsigned integer that holds q - 1 (uint8 for q <= 256, else uint16).
Fields with q <= _TABLE_MAX build q x q addition and multiplication tables
once, on first use: Python lists for the scalar ops `add` and `mul`, which
check their arguments, and the same tables flat, as read-only symbol
arrays, for the array ops `vadd` and `vmul`.  The array ops take any
integer arrays of canonical elements (or ints), broadcast, do not check,
and return symbols: `vadd` is XOR whenever p = 2; otherwise each op is one
`take` from the flat table at a * q + b, indexed in uint8 while q <= 16,
in uint16 while q <= 256 and in intp above.  Negation is multiplication
by the element p - 1, since -a = (p - 1) a in characteristic p.  Larger
fields have no tables: the scalar ops compute each result from the
digits, and the array ops apply the same scalar routines elementwise.

GF instances are immutable after construction (the tables are a lazily
built cache) and all operations are pure functions of their arguments, so
fields can be shared freely between threads.
"""

from __future__ import annotations

from itertools import product

import numpy as np

MAX_Q = 1 << 16      # construction guard; larger fields are out of scope
_TABLE_MAX = 1 << 10  # build q*q lookup tables only for fields this small


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; ValueError if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e, n = 0, q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_rem(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num mod monic den over GF(p), coefficients low-degree-first."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg//2."""
    e = len(poly) - 1
    for deg in range(1, e // 2 + 1):
        for coeffs in product(range(p), repeat=deg):
            den = coeffs + (1,)
            if not any(_poly_rem(list(poly), den, p)):
                return False
    return True


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    for coeffs in product(range(p), repeat=e):
        poly = coeffs + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


def _frozen(tab: list[int], dtype) -> np.ndarray:
    arr = np.array(tab, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _elementwise(op, a, b, symbol) -> np.ndarray:
    """op applied to every broadcast pair, as symbols: the array ops of
    fields too large for lookup tables."""
    return np.asarray(np.frompyfunc(op, 2, 1)(a, b), dtype=symbol)


class GF:
    """The finite field with q = p^e elements.

    >>> F = GF(2, 2)
    >>> F.mul(2, 2)   # x * x = x + 1 mod x^2 + x + 1
    3
    """

    __slots__ = (
        "p", "e", "q", "modulus", "symbol", "_add_tab", "_mul_tab", "_add_flat", "_mul_flat",
    )

    def __init__(self, p: int, e: int = 1):
        if e < 1 or int(e) != e:
            raise ValueError(f"extension degree must be a positive integer, got {e}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        q = p ** e
        if q > MAX_Q:
            raise ValueError(f"q = {p}^{e} = {q} exceeds the guard {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _least_irreducible(p, e)
        self.symbol = np.min_scalar_type(q - 1)      # the dtype of an element array
        self._add_tab: list[int] | None = None
        self._mul_tab: list[int] | None = None
        self._add_flat: np.ndarray | None = None
        self._mul_flat: np.ndarray | None = None

    @classmethod
    def from_q(cls, q: int) -> GF:
        """The field with q elements; ValueError if q is not a prime power."""
        return cls(*prime_power(q))

    # -- encoding ----------------------------------------------------------

    def digits(self, a: int) -> list[int]:
        """Base-p digit list (polynomial coefficients) of an element."""
        self._chk(a)
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, digits) -> int:
        n = 0
        for d in reversed(list(digits)):
            n = n * self.p + d % self.p
        return n

    def elements(self) -> list[int]:
        """All q elements in increasing canonical order; first is 0."""
        return list(range(self.q))

    # -- arithmetic --------------------------------------------------------

    def _chk(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self!r}")

    def _add_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, pk = self.p, 0, 1
        for _ in range(self.e):
            out += ((a + b) % p) * pk
            a //= p
            b //= p
            pk *= p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        return self.encode(_poly_rem(conv, self.modulus, self.p))

    def _ensure_tables(self) -> None:
        if self._mul_tab is not None or self.q > _TABLE_MAX:
            return
        q = self.q
        self._add_tab = [self._add_raw(a, b) for a in range(q) for b in range(q)]
        self._mul_tab = [self._mul_raw(a, b) for a in range(q) for b in range(q)]
        self._add_flat = _frozen(self._add_tab, self.symbol)
        self._mul_flat = _frozen(self._mul_tab, self.symbol)

    def add(self, a: int, b: int) -> int:
        self._chk(a)
        self._chk(b)
        self._ensure_tables()
        if self._add_tab is not None:
            return self._add_tab[a * self.q + b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._chk(a)
        self._chk(b)
        self._ensure_tables()
        if self._mul_tab is not None:
            return self._mul_tab[a * self.q + b]
        return self._mul_raw(a, b)

    def _flat_take(self, flat: np.ndarray, a, b) -> np.ndarray:
        """flat[a * q + b], indexed in uint8 while q * q <= 256, in uint16
        while q * q <= 2^16 and in intp above."""
        q = self.q
        index = np.uint8 if q <= 16 else np.uint16 if q <= 256 else np.intp
        return flat.take(np.asarray(a, dtype=index) * q + np.asarray(b, dtype=index))

    def vadd(self, a, b) -> np.ndarray:
        """Elementwise a + b of arrays of elements (or ints), as symbols;
        broadcasts."""
        if self.p == 2:
            return np.bitwise_xor(a, b).astype(self.symbol, copy=False)
        self._ensure_tables()
        if self._add_flat is None:
            return _elementwise(self._add_raw, a, b, self.symbol)
        return self._flat_take(self._add_flat, a, b)

    def vmul(self, a, b) -> np.ndarray:
        """Elementwise a * b of arrays of elements (or ints), as symbols;
        broadcasts.  vmul(p - 1, a) is the array negation."""
        self._ensure_tables()
        if self._mul_flat is None:
            return _elementwise(self._mul_raw, a, b, self.symbol)
        return self._flat_take(self._mul_flat, a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        """a**n for any integer n; negative n goes through the inverse."""
        self._chk(a)
        if n == 0:
            return 1
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 0
        n %= self.q - 1            # a^(q-1) = 1 for a != 0
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return out

    # -- misc ----------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON form: {p, e, modulus: [c_0 .. c_e]}."""
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"
