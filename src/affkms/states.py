"""Evaluation of every equilibrium functional of the system on spanning monomials.

All variants share the rescaling skeleton: a monomial V_a U^k V_b^* evaluates
to delta_{a,b} a^-beta times a moment of the underlying circle measure,
so off-diagonal monomials (a != b) are killed for every spec.  The recurring
arithmetic factor is

    h_beta(c) = c^-beta * sum_{d|c} mu(d) phi_beta(d)/phi(d),

the k-th moment of the extremal measure of index c = n/gcd(n,k).

Series-backed variants (the low-temperature ones) sum the c^-beta series
exactly by residue class and always report the propagated remainder bound
alongside the value; there are no hidden convergence claims.

A quotient or Q/Z spec evaluates as its integer twin (its `twin`, built once
at construction) on the exponent of the monomial at its modulus:
Quotient(n, m) as FiniteN(m), QZSubgroup(L, m) as FiniteN(L/m), since
ord(m k/L) = (L/m)/gcd(L/m, k), and QuotientChar(n, zeta) and QZChar(L, chi)
as the LowTemp state of the point mass at zeta or chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, gcd, pi
from random import Random
from typing import NamedTuple, Union

import numpy as np

from .arith import (
    RESIDUE_BYTES,
    PrimeSet,
    charge,
    checked_mul,
    divisors,
    mobius,
    partial_zeta,
    require,
    residue_weights,
    smooth_numbers,
    squarefree_products,
    totient,
    totient_beta,
)
from .algebra import (
    AlgebraElement,
    Monomial,
    mono_mul,
    projection_eF,
    sigma_ibeta_factor,
    unitary_power,
)
from .measures import (
    AtomicMeasure,
    RootOfUnity,
    dirac,
    fourier,
    moments,
    root,
)


def _check_divisor_index(m: int) -> None:
    if m < 1:
        raise ValueError(f"divisor index m must be >= 1, got {m}")


@dataclass(frozen=True)
class FiniteN:
    """Extremal state of finite index n; the closed form is valid for all beta >= 0."""

    n: int
    beta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"index n must be >= 1, got {self.n}")
        require("FiniteN", "beta", self.beta, ge=0)


@dataclass(frozen=True)
class LebesgueInf:
    """The state of Lebesgue measure: delta_{a,b} delta_{k,0} a^-beta."""

    beta: float

    def __post_init__(self):
        require("LebesgueInf", "beta", self.beta, ge=0)


@dataclass(frozen=True)
class FromMeasure:
    """The state induced by an arbitrary circle measure via its moments."""

    nu: AtomicMeasure
    beta: float

    def __post_init__(self):
        require("FromMeasure", "beta", self.beta, ge=0)


@dataclass(frozen=True)
class LowTemp:
    """Low-temperature state of a base measure eta, via the normalized c^-beta series."""

    eta: AtomicMeasure
    beta: float

    def __post_init__(self):
        require("LowTemp", "beta", self.beta, gt=1)


@dataclass(frozen=True)
class Quotient:
    """Finite-quotient state indexed by a divisor m of the modulus n (beta <= 1)."""

    n: int
    m: int
    beta: float

    def __post_init__(self):
        _check_divisor_index(self.m)
        if self.n < 1 or self.n % self.m != 0:
            raise ValueError(f"m = {self.m} must divide n = {self.n}")
        require("Quotient", "beta", self.beta, ge=0, le=1)
        object.__setattr__(self, "twin", FiniteN(self.m, self.beta))


@dataclass(frozen=True)
class QuotientChar:
    """Finite-quotient state of a root of unity zeta (beta > 1, exact series)."""

    n: int
    zeta: RootOfUnity
    beta: float

    def __post_init__(self):
        if self.n < 1 or self.n % self.zeta.den != 0:
            raise ValueError(f"order of {self.zeta} must divide n = {self.n}")
        require("QuotientChar", "beta", self.beta, gt=1)
        object.__setattr__(self, "twin", LowTemp(dirac(self.zeta), self.beta))


@dataclass(frozen=True)
class QZSubgroup:
    """Level-N state of the subgroup H = (1/m)Z/Z of Q/Z, for m | N (beta <= 1)."""

    level: int
    m: int
    beta: float

    def __post_init__(self):
        _check_divisor_index(self.m)
        if self.level < 1 or self.level % self.m != 0:
            raise ValueError(f"m = {self.m} must divide the level {self.level}")
        require("QZSubgroup", "beta", self.beta, ge=0, le=1)
        object.__setattr__(self, "twin", FiniteN(self.level // self.m, self.beta))


@dataclass(frozen=True)
class QZChar:
    """Level-N character state: chi(1/N) = the given root of unity (beta > 1)."""

    level: int
    chi: RootOfUnity
    beta: float

    def __post_init__(self):
        if self.level < 1 or self.level % self.chi.den != 0:
            raise ValueError(f"order of {self.chi} must divide the level {self.level}")
        require("QZChar", "beta", self.beta, gt=1)
        object.__setattr__(self, "twin", LowTemp(dirac(self.chi), self.beta))


StateSpec = Union[FiniteN, LebesgueInf, FromMeasure, LowTemp, Quotient, QuotientChar, QZSubgroup, QZChar]

INTEGER_FAMILY = (FiniteN, LebesgueInf, FromMeasure, LowTemp)
# the families kms_residual checks
KMS_FAMILY = (FiniteN, LebesgueInf, FromMeasure)


@dataclass(frozen=True)
class QZMonomial:
    """V_a R_x V_b^* with x a point of Q/Z given as a reduced fraction."""

    a: int
    x: RootOfUnity
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError(f"isometry indices must be >= 1, got ({self.a}, {self.b})")


class StateValue(NamedTuple):
    value: complex
    tail: float | None = None


@lru_cache(maxsize=100_000)
def h_beta(c: int, beta: float) -> float:
    """c^-beta * sum_{d|c} mu(d) phi_beta(d)/phi(d): the order-c moment factor."""
    s = sum(
        mobius(d) * totient_beta(d, beta) / totient(d)
        for d in divisors(c)
        if mobius(d) != 0
    )
    return float(c) ** -beta * s


def _qz_exponent(spec: StateSpec, x: RootOfUnity) -> int:
    """Integer k with x = k/N in Q/Z, N the spec's modulus n or level (requires ord(x) | N)."""
    if isinstance(spec, (Quotient, QuotientChar)):
        n, name = spec.n, f"n = {spec.n}"
    else:
        n, name = spec.level, f"the level {spec.level}"
    if n % x.den != 0:
        raise ValueError(f"order of {x} does not divide {name}")
    return x.num * (n // x.den)


def eval_state(spec: StateSpec, x: Monomial | QZMonomial) -> StateValue:
    """Value of the state on a single spanning monomial (with its error bound for series)."""
    if isinstance(spec, INTEGER_FAMILY):
        if not isinstance(x, Monomial):
            raise TypeError(f"{type(spec).__name__} expects an integer monomial, got {type(x).__name__}")
        a, k, b = x.a, x.k, x.b
        twin = spec
    else:
        if isinstance(x, QZMonomial):
            a, b = x.a, x.b
            k = _qz_exponent(spec, x.x)
        elif isinstance(x, Monomial) and isinstance(spec, (Quotient, QuotientChar)):
            a, k, b = x.a, x.k, x.b
        else:
            raise TypeError(f"{type(spec).__name__} expects a Q/Z monomial, got {type(x).__name__}")
        twin = spec.twin

    if a != b:
        return StateValue(0j, 0.0 if isinstance(twin, LowTemp) else None)
    apow = float(a) ** -twin.beta

    if isinstance(twin, FiniteN):
        c = twin.n // gcd(twin.n, k)
        return StateValue(complex(apow * h_beta(c, twin.beta)), None)
    if isinstance(twin, LebesgueInf):
        return StateValue(complex(apow if k == 0 else 0.0), None)
    if isinstance(twin, FromMeasure):
        return StateValue(apow * fourier(twin.nu, k), None)
    val, tail = _series_moment(twin.eta, k, twin.beta)  # LowTemp
    return StateValue(apow * val, apow * tail)


def _series_moment(eta: AtomicMeasure, k: int, beta: float) -> tuple[complex, float]:
    """k-th moment of zeta(beta)^-1 sum_c c^-beta omega_c* eta, with its error bound.

    z^(kc) depends on c only modulo q = K/gcd(K, k), K the support level, so
    the series folds exactly into the q residue-class sums w[r]:
    value = sum_r w[r] eta^(k r) / sum_r w[r].  Each |eta^(k r)| is at most
    the total variation V of eta, so weights within E of exact in total
    move the value by at most 2 V E / (sum_r w[r] - E).
    """
    K = eta.support_level()
    q = K // gcd(K, k)
    weights, err = residue_weights(q, beta)
    acc = 0j
    for w, moment in zip(weights, moments(eta, [k * r for r in range(q)])):
        acc += w * moment
    total = fsum(weights)
    return acc / total, 2.0 * eta.variation() * err / (total - err)


def eval_element(spec: StateSpec, elem: AlgebraElement) -> StateValue:
    """Linear extension to finite combinations; tails accumulate with |coefficient|."""
    acc = 0j
    tail: float | None = 0.0 if isinstance(getattr(spec, "twin", spec), LowTemp) else None
    for m, c in elem.terms().items():
        sv = eval_state(spec, m)
        acc += c * sv.value
        if tail is not None and sv.tail is not None:
            tail += abs(c) * sv.tail
    return StateValue(acc, tail)


def kms_residual(spec: StateSpec, x: Monomial, y: Monomial) -> float:
    """|psi(xy) - (a/b)^-beta psi(yx)|, zero exactly when psi is an equilibrium state."""
    if not isinstance(spec, KMS_FAMILY):
        raise TypeError("kms_residual applies to the integer-monoid state family")
    lhs = eval_state(spec, mono_mul(x, y)).value
    rhs = sigma_ibeta_factor(x, spec.beta) * eval_state(spec, mono_mul(y, x)).value
    return abs(lhs - rhs)


def kms_sweep(
    spec: StateSpec, pairs: int, rng: Random
) -> tuple[float, tuple[Monomial, Monomial] | None]:
    """Largest :func:`kms_residual` over random pairs with a, b in 1..20 and k in -15..15,
    with the pair that attains it (None when every residual is 0)."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    worst, witness = 0.0, None
    for _ in range(pairs):
        x = Monomial(rng.randint(1, 20), rng.randint(-15, 15), rng.randint(1, 20))
        y = Monomial(rng.randint(1, 20), rng.randint(-15, 15), rng.randint(1, 20))
        r = kms_residual(spec, x, y)
        if r > worst:
            worst, witness = r, (x, y)
    return worst, witness


def subconformal_witness_value(
    nu: AtomicMeasure,
    beta: float,
    F: PrimeSet,
    f_coeffs: dict[int, complex],
    grid: int = 4096,
) -> float:
    """integral of f against A_{beta,F} nu, via Fourier pairing.

    f is a trigonometric polynomial given by its coefficients; it must be
    real and verifiably non-negative on a uniform grid.  A value below
    -1e-9 certifies that nu is not beta-subconformal.
    """
    thetas = np.arange(grid) / grid
    vals = np.zeros(grid, dtype=complex)
    for j, c in f_coeffs.items():
        vals += complex(c) * np.exp(2j * pi * j * thetas)
    if float(np.max(np.abs(vals.imag))) > 1e-9:
        raise ValueError("f is not real-valued on the verification grid")
    if float(np.min(vals.real)) < -1e-9:
        raise ValueError("f is not verifiably non-negative on the verification grid")
    acc = 0j
    for d in squarefree_products(F):
        cmu = mobius(d) * float(d) ** -beta
        for j, c in f_coeffs.items():
            acc += cmu * complex(c) * fourier(nu, j * d)
    if abs(acc.imag) > 1e-9:
        raise ValueError(f"pairing produced a non-real value {acc}")
    return acc.real


def witness_element(F: PrimeSet, f_coeffs: dict[int, complex]) -> AlgebraElement:
    """e_F (V_1 f V_1^*) e_F as an algebra element, for the cross-check route."""
    ef = projection_eF(F)
    poly = AlgebraElement({Monomial(1, j, 1): complex(c) for j, c in f_coeffs.items()})
    return ef * poly * ef


def apply_kappa(b: int, x: Monomial) -> Monomial:
    """The symmetry endomorphism fixing every V_a and raising U to U^b."""
    if b < 0:
        raise ValueError(f"kappa index must be >= 0, got {b}")
    return Monomial(x.a, checked_mul(b, x.k), x.b)


def weak_star_gap(beta: float, n: int, x: Monomial) -> tuple[float, float]:
    """(|psi_{beta,n}(x) - psi_{beta,inf}(x)|, a^-beta (n/gcd(n,k))^-beta)."""
    require("weak_star_gap", "beta", beta, ge=0, le=1)
    fin = eval_state(FiniteN(n, beta), x).value
    inf = eval_state(LebesgueInf(beta), x).value
    gap = abs(fin - inf)
    bound = float(x.a) ** -beta * (n / gcd(n, x.k)) ** -beta
    return gap, bound


def reconstruct_check(
    spec: FiniteN | FromMeasure, F: PrimeSet, k: int, C: int
) -> tuple[float, float, float]:
    """Compare psi(U^k) against its compression series over the F-smooth monoid.

    rhs = sum_{a F-smooth, a <= C} a^-beta psi(e_F U^{ak} e_F), computed through
    the algebra product so the projection route is genuinely exercised;
    tail = (zeta_F(beta) - partial sum) / zeta_F(beta) bounds |lhs - rhs|.
    """
    beta = spec.beta
    require("reconstruct_check", "beta", beta, gt=0)
    lhs = eval_state(spec, Monomial(1, k, 1)).value.real
    ef = projection_eF(F)
    rhs = 0.0
    partial = 0.0
    for a in smooth_numbers(F, C):
        apow = float(a) ** -beta
        partial += apow
        compressed = ef * unitary_power(a * k) * ef
        rhs += apow * eval_element(spec, compressed).value.real
    zf = partial_zeta(F, beta)
    tail = (zf - partial) / zf
    return lhs, rhs, tail


def limit_beta1(z: RootOfUnity, betas: list[float]) -> list[tuple[float, float]]:
    """Total-variation distance of the exact series image of delta_z from uniform.

    For each beta in the given (descending toward 1) list, the distance of
    T_beta delta_z from the uniform measure on the order-n roots; the trend
    is monotone non-increasing as beta decreases to 1.  The image puts
    w[r] / sum(w) on z^r, w the residue-class sums (see
    :func:`affkms.measures.t_beta_exact_root`), so the distance is
    sum_r |w[r] / sum(w) - 1/n|, added in r order.  Raises
    :class:`RangeError` up front when the n class sums would exceed
    ``ARRAY_BYTES_LIMIT`` bytes.
    """
    if not betas:
        raise ValueError("limit_beta1 requires at least one beta, got []")
    n = z.den
    charge(f"limit_beta1 at order {n}", n * RESIDUE_BYTES)
    rows = []
    for beta in betas:
        weights, _ = residue_weights(n, beta)
        total = fsum(weights)
        rows.append((beta, sum(abs(w / total - 1.0 / n) for w in weights)))
    return rows


_SUPERPOSITION_MONOMIALS = (
    Monomial(1, 0, 1),
    Monomial(1, 1, 1),
    Monomial(2, 1, 2),
    Monomial(3, 2, 3),
    Monomial(2, -1, 2),
    Monomial(5, 3, 5),
    Monomial(4, 6, 4),
)


def superposition_check(n: int, beta: float) -> tuple[float, float]:
    """Max deviation between the closed form and the uniform superposition of
    point-mass low-temperature states over the primitive n-th roots.

    Returns (max deviation over the test monomials, the series error bound).
    """
    require("superposition_check", "beta", beta, gt=1)
    prim = [RootOfUnity(j, n) for j in range(n) if gcd(j, n) == 1]
    phi_n = len(prim)
    specs = [LowTemp(dirac(xi), beta) for xi in prim]
    test = _SUPERPOSITION_MONOMIALS + (Monomial(1, n, 1),)
    max_dev = 0.0
    max_tail = 0.0
    for m in test:
        closed = eval_state(FiniteN(n, beta), m).value
        acc = 0j
        tail = 0.0
        for s in specs:
            sv = eval_state(s, m)
            acc += sv.value
            tail += sv.tail
        dev = abs(closed - acc / phi_n)
        max_dev = max(max_dev, dev)
        max_tail = max(max_tail, tail / phi_n)
    return max_dev, max_tail


def qz_coherence(
    level: int, m: int, n: int, beta: float, x: QZMonomial
) -> tuple[complex, complex]:
    """Restriction identity: the level-N subgroup state against the modulus-n quotient state.

    H = (1/m)Z/Z meets (1/n)Z/Z in (1/gcd(m,n))Z/Z, which is the quotient
    state of divisor index n/gcd(m,n).
    """
    if level % n != 0:
        raise ValueError(f"n = {n} must divide the level {level}")
    if n % x.x.den != 0:
        raise ValueError(f"monomial order {x.x.den} must divide n = {n}")
    lhs = eval_state(QZSubgroup(level, m, beta), x).value
    rhs = eval_state(Quotient(n, n // gcd(m, n), beta), x).value
    return lhs, rhs


def coherence_sweep(
    level: int, beta: float, count: int, rng: Random, ms: list[int] | None = None
) -> tuple[float, tuple[int, int, QZMonomial] | None, int]:
    """Largest :func:`qz_coherence` gap over `count` random monomials for every
    subgroup divisor m (all divisors of the level unless `ms` is given) and
    every n | level, with the (m, n, x) that attains it and the number of checks.
    Both states are built once per (m, n), not once per monomial."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    require("QZSubgroup", "beta", beta, ge=0, le=1)  # the subgroup states' refusal, ahead of the count's
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    worst, witness, checks = 0.0, None, 0
    for m in divisors(level) if ms is None else ms:
        _check_divisor_index(m)
        if level % m != 0:
            raise ValueError(f"subgroup divisor {m} does not divide the level {level}")
        sub = QZSubgroup(level, m, beta)
        for n in divisors(level):
            quo = Quotient(n, n // gcd(m, n), beta)
            for _ in range(count):
                q = rng.choice(divisors(n))
                num = rng.choice([j for j in range(q) if gcd(j, q) == 1])
                x = QZMonomial(rng.randint(1, 8), root(num, q), rng.randint(1, 8))
                gap = abs(eval_state(sub, x).value - eval_state(quo, x).value)
                checks += 1
                if gap > worst:
                    worst, witness = gap, (m, n, x)
    return worst, witness, checks
