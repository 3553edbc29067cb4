"""Sparse multivariate polynomials over GF(q) and projective reduction.

A Poly is an immutable sparse map from exponent tuples to nonzero
coefficients (canonical ints).  Variables are named X0, X1, ... both in the
text format and throughout the code; a polynomial in the homogeneous
setting over projective m-space uses m + 1 variables X0 .. Xm.

Projective reduction rewrites each monomial to the canonical monomial with
the same degree and the same values at every point of the ambient affine
space: every exponent before the last positive one is folded into
[0, q - 1] modulo q - 1 (keeping positive exponents positive) and the
deficit moves onto the last variable.  Fixed points of this map span a
section of the evaluation map onto the projective Reed-Muller code.

Text format: terms joined by " + ", each term "c*X0^a0*X1^a1*..." with the
coefficient as a canonical integer; zero exponents are omitted, exponent 1
prints without "^", coefficient 1 is omitted unless the term is constant.
Example: "2*X0*X1^2 + X2^3".  parse_poly and format_poly round-trip.
"""

from __future__ import annotations

from itertools import product

from .gf import GF


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; .column is the 0-based offset."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key for the canonical listing order: ascending total degree,
    then earlier-variable-heavy monomials first within a degree."""
    return (sum(exps), tuple(-e for e in exps))


class Poly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: GF, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("polynomial needs at least one variable")
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(a < 0 for a in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            field._chk(c)
            if c:
                clean[exps] = c
        self.field = field
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: GF, nvars: int) -> "Poly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: GF, nvars: int, c: int) -> "Poly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, field: GF, exps, coeff: int = 1) -> "Poly":
        exps = tuple(exps)
        return cls(field, len(exps), {exps: coeff})

    @classmethod
    def linear(cls, field: GF, coeffs) -> "Poly":
        """Homogeneous linear form from a coefficient sequence, not all zero."""
        coeffs = tuple(coeffs)
        if not any(coeffs):
            raise ValueError("linear form must have a nonzero coefficient")
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(field, n, terms)

    @classmethod
    def affine(cls, field: GF, coeffs) -> "Poly":
        """Affine form c_0*X0 + ... + c_{n-1}*X_{n-1} + c_n from a tuple of
        length n + 1 whose last entry is the constant term."""
        coeffs = tuple(coeffs)
        n = len(coeffs) - 1
        terms = {}
        for i in range(n):
            if coeffs[i]:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = coeffs[i]
        if coeffs[n]:
            terms[(0,) * n] = coeffs[n]
        return cls(field, n, terms)

    # -- ring operations -----------------------------------------------------

    def _compat(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._compat(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = F.add(out.get(e, 0), c)
        return Poly(F, self.nvars, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: int) -> "Poly":
        F = self.field
        F._chk(c)
        return Poly(F, self.nvars, {e: F.mul(c, x) for e, x in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._compat(other)
        F = self.field
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = F.add(out.get(e, 0), F.mul(c1, c2))
        return Poly(F, self.nvars, out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(self.field, self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def evaluate(self, point) -> int:
        """Exact evaluation; the convention 0^0 = 1 applies per variable."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, need {self.nvars}")
        F = self.field
        for x in point:
            F._chk(x)
        acc = 0
        for exps, c in self.terms.items():
            v = c
            for x, a in zip(point, exps):
                if a:
                    v = F.mul(v, F.pow(x, a))
                    if v == 0:
                        break
            acc = F.add(acc, v)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return format_poly(self)


# -- projective reduction ----------------------------------------------------


def reduce_exponents(q: int, exps: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical same-degree exponent vector with the same evaluations on
    the full affine space; identity on the monomial 1."""
    last = -1
    for i in range(len(exps) - 1, -1, -1):
        if exps[i] > 0:
            last = i
            break
    if last <= 0:
        return tuple(exps)
    new = list(exps)
    moved = 0
    for i in range(last):
        a = exps[i]
        if a >= q:
            r = a % (q - 1)
            na = r if r else q - 1
            new[i] = na
            moved += a - na
    new[last] += moved
    return tuple(new)


def reduce_projective(f: Poly) -> Poly:
    """Apply the reduction monomial-wise and recombine like terms.

    Colliding monomials must have their coefficients summed over GF(q);
    this is the one subtle step and evaluation preservation covers it.
    """
    F = f.field
    out: dict[tuple[int, ...], int] = {}
    for exps, c in f.terms.items():
        r = reduce_exponents(F.q, exps)
        out[r] = F.add(out.get(r, 0), c)
    return Poly(F, f.nvars, out)


def reduced_monomials_projective(q: int, d: int, m: int) -> list[tuple[int, ...]]:
    """All projectively reduced monomials of degree d in m + 1 variables,
    in canonical listing order.  These form a basis of the space that maps
    isomorphically onto the projective Reed-Muller code of order d."""
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    out = []
    for last in range(m + 1):
        for head in product(range(min(q, d + 1)), repeat=last):
            rest = d - sum(head)
            if rest >= 1:
                out.append(head + (rest,) + (0,) * (m - last))
    out.sort(key=grlex_key)
    return out


def reduced_monomials_affine(q: int, nu: int, n: int) -> list[tuple[int, ...]]:
    """All monomials in n variables with every exponent at most q - 1 and
    total degree at most nu, in canonical listing order."""
    out = [e for e in product(range(q), repeat=n) if sum(e) <= nu]
    out.sort(key=grlex_key)
    return out


# -- text format ----------------------------------------------------------------


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for exps in sorted(f.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = f.terms[exps]
        factors = []
        for i, a in enumerate(exps):
            if a == 1:
                factors.append(f"X{i}")
            elif a > 1:
                factors.append(f"X{i}^{a}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


def parse_poly(text: str, field: GF, nvars: int) -> Poly:
    """Inverse of format_poly; raises PolyParseError with a column offset."""
    out = Poly.zero(field, nvars)
    pos = 0
    for chunk in text.split("+"):
        term = chunk.strip()
        col = pos + (len(chunk) - len(chunk.lstrip()))
        pos += len(chunk) + 1
        if not term:
            raise PolyParseError("empty term", col)
        coeff = 1
        exps = [0] * nvars
        saw_coeff = False
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise PolyParseError("empty factor", col)
            if factor[0] in "0123456789":
                if saw_coeff or any(exps):
                    raise PolyParseError(f"misplaced coefficient {factor!r}", col)
                try:
                    coeff = int(factor)
                except ValueError:
                    raise PolyParseError(f"bad coefficient {factor!r}", col) from None
                if not 0 <= coeff < field.q:
                    raise PolyParseError(
                        f"coefficient {coeff} out of range for {field!r}", col
                    )
                saw_coeff = True
                continue
            if factor[0] not in "Xx":
                raise PolyParseError(f"expected variable, got {factor!r}", col)
            body = factor[1:]
            var, _, exp = body.partition("^")
            try:
                i = int(var)
                a = int(exp) if exp else 1
            except ValueError:
                raise PolyParseError(f"bad factor {factor!r}", col) from None
            if not 0 <= i < nvars:
                raise PolyParseError(f"variable X{i} out of range", col)
            if a < 1:
                raise PolyParseError(f"bad exponent in {factor!r}", col)
            exps[i] += a
        out = out + Poly.monomial(field, tuple(exps), coeff)
    return out
