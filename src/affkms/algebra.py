"""Spanning monomials V_a U^k V_b^* and their *-algebra.

The triple (a, k, b) is already a normal form: single-term products close up
via

    (V_a U^m V_b^*)(V_c U^n V_d^*) = V_{a c'} U^{m c' + n b'} V_{b' d}^*,
    c' = c/gcd(b,c),  b' = b/gcd(b,c),

so no rewriting system is needed.  Elements are finite complex-linear
combinations; coefficient arithmetic is exact whenever all coefficients are
integer-valued (a complex double is a pair of doubles, and integer values
below 2^53 add and multiply without rounding), which the projection
identities rely on for exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping

from .arith import INT64_MAX, PrimeSet, RangeError, checked_mul, divisors, mobius, squarefree_products
from .measures import RootOfUnity


@dataclass(frozen=True, order=True, slots=True)
class Monomial:
    """V_a U^k V_b^* with isometry indices a, b >= 1 and integer unitary power k."""

    a: int
    k: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError(f"isometry indices must be >= 1, got ({self.a}, {self.b})")

    def __str__(self):
        return f"V{self.a} U^{self.k} V{self.b}*"


IDENTITY = Monomial(1, 0, 1)


def mono_mul(x: Monomial, y: Monomial) -> Monomial:
    g = gcd(x.b, y.a)
    cp = y.a // g
    bp = x.b // g
    k = checked_mul(x.k, cp) + checked_mul(y.k, bp)
    if abs(k) > INT64_MAX:
        raise RangeError(f"unitary power {k} leaves the 64-bit range")
    return Monomial(checked_mul(x.a, cp), k, checked_mul(bp, y.b))


def adjoint(x: Monomial) -> Monomial:
    return Monomial(x.b, -x.k, x.a)


def sigma_ibeta_factor(x: Monomial, beta: float) -> float:
    """Scalar with sigma_{i*beta}(x) = (a/b)^-beta * x for the natural dynamics."""
    return (x.a / x.b) ** -beta


def _accumulate(acc: dict[Monomial, complex], pairs: Iterable[tuple[Monomial, complex]]) -> dict:
    """Add the (monomial, coefficient) pairs into acc in order, dropping every sum that reaches 0."""
    get = acc.get
    for m, c in pairs:
        nc = get(m, 0j) + c
        if nc:
            acc[m] = nc
        else:
            acc.pop(m, None)
    return acc


class AlgebraElement:
    """Finite complex-linear combination of monomials (zero coefficients never stored)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, complex] | Iterable[tuple[Monomial, complex]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "_terms", _accumulate({}, [(m, complex(c)) for m, c in items]))

    @classmethod
    def _of(cls, terms: dict[Monomial, complex]) -> "AlgebraElement":
        """The element of an already accumulated term dict, which it takes over."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({IDENTITY: 1.0})

    @classmethod
    def monomial(cls, m: Monomial, coeff: complex = 1.0) -> "AlgebraElement":
        return cls({m: coeff})

    def terms(self) -> dict[Monomial, complex]:
        return dict(self._terms)

    def coeff(self, m: Monomial) -> complex:
        return self._terms.get(m, 0j)

    def __len__(self):
        return len(self._terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement._of(_accumulate(self.terms(), other._terms.items()))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "AlgebraElement":
        return AlgebraElement({m: c * w for m, w in self._terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        # a generator: a list would hold all len(self) * len(other) products at once
        ys = other._terms.items()
        pairs = ((mono_mul(mx, my), cx * cy) for mx, cx in self._terms.items() for my, cy in ys)
        return AlgebraElement._of(_accumulate({}, pairs))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement({adjoint(m): c.conjugate() for m, c in self._terms.items()})

    def has_integer_coeffs(self) -> bool:
        return all(
            c.imag == 0.0 and float(c.real).is_integer() for c in self._terms.values()
        )

    def equals(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        """Exact comparison on integer coefficients, tolerance 'tol' otherwise."""
        diff = self - other
        if not diff._terms:
            return True
        if self.has_integer_coeffs() and other.has_integer_coeffs():
            return False
        return all(abs(c) <= tol for c in diff._terms.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self._terms.values())

    def __repr__(self):
        parts = [f"({c.real:g}{c.imag:+g}j)*{m}" for m, c in sorted(self._terms.items())]
        return " + ".join(parts) if parts else "0"


def unitary_power(k: int) -> AlgebraElement:
    return AlgebraElement.monomial(Monomial(1, k, 1))


def range_projection(d: int) -> AlgebraElement:
    """V_d V_d^*."""
    return AlgebraElement.monomial(Monomial(d, 0, d))


def projection_eF(F: PrimeSet) -> AlgebraElement:
    """e_F = prod_{p in F} (1 - V_p V_p^*) = sum over square-free F-products d of mu(d) V_d V_d^*."""
    if len(F) > 20:
        raise ValueError(f"|F| = {len(F)} > 20 would expand to too many terms")
    return AlgebraElement(
        {Monomial(d, 0, d): float(mobius(d)) for d in squarefree_products(F)}
    )


def projection_eab(a: int, b: int) -> AlgebraElement:
    """e_{a,b} = sum_{d | a/b} mu(d) V_{bd} V_{bd}^*, a self-adjoint idempotent."""
    if a % b != 0:
        raise ValueError(f"b = {b} must divide a = {a}")
    return AlgebraElement(
        {Monomial(b * d, 0, b * d): float(mobius(d)) for d in divisors(a // b)}
    )


def alpha(a: int, x: AlgebraElement) -> AlgebraElement:
    """The compression endomorphism x -> V_a x V_a^*."""
    va = AlgebraElement.monomial(Monomial(a, 0, 1))
    return va * x * va.adjoint()


@dataclass(frozen=True)
class SpectrumPoint:
    """A point (z, d) of the level-a space: circle coordinate z and divisor label d."""

    z: RootOfUnity
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"divisor label must be >= 1, got {self.d}")


def spectra_project(p: SpectrumPoint, a: int, b: int) -> SpectrumPoint:
    """Connecting map of the divisor-indexed circle system, level b down to level a | b:

        (z, d) -> (z^(d/gcd(a,d)), gcd(a,d)).
    """
    if b % a != 0:
        raise ValueError(f"a = {a} must divide b = {b}")
    if b % p.d != 0:
        raise ValueError(f"divisor label {p.d} does not divide the source level {b}")
    g = gcd(a, p.d)
    return SpectrumPoint(p.z.pow(p.d // g), g)

