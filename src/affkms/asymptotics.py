"""Smooth-number counting, the Dickman function, Mertens products, and the
vanishing partial sums over the smooth monoid.

Every limit statement is exercised as a monotone trend at desk scale; exact
quantities (the counter Psi, the harmonic partial sums) are computed exactly.
The counter uses the recursion

    Psi(x, p_k) = Psi(x, p_{k-1}) + Psi(x // p_k, p_k)

with a shared memo table (write-once entries, safe for concurrent readers);
the base case counts powers of two.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .arith import PrimeSet, RangeError, first_primes, is_prime, primes_up_to, smooth_numbers

EULER_GAMMA = 0.5772156649015329

PSI_X_LIMIT = 10**12
_DELTA_CAP = 10**9  # largest exact-counter argument delta_estimate will touch

_psi_primes: list[int] = []
_psi_memo: dict[int, int] = {}


def _ensure_primes(y: int) -> int:
    """Extend the shared prime list through y; return the index of the largest prime <= y.

    Extension preserves the prefix, so existing memo entries stay valid.
    """
    global _psi_primes
    if not _psi_primes or _psi_primes[-1] < y:
        _psi_primes = primes_up_to(max(y, 1000))
    return bisect_right(_psi_primes, y) - 1


def _psi(x: int, k: int) -> int:
    # iterative in the prime index (recursion depth is then <= log2 x):
    #   Psi(x, p_k) = Psi(x, 2) + sum_{1<=j<=k} Psi(x // p_j, p_j)
    if x <= 0:
        return 0
    if x == 1:
        return 1
    kk = min(k, bisect_right(_psi_primes, x, hi=k + 1) - 1)
    if kk < 0:
        return 1
    if kk == 0:
        return x.bit_length()
    # kk < pi(10^6) < 2^17, the prime table's reach, so the key is collision-free
    key = (x << 17) | kk
    v = _psi_memo.get(key)
    if v is None:
        v = x.bit_length()
        for j in range(1, kk + 1):
            v += _psi(x // _psi_primes[j], j)
        _psi_memo[key] = v
    return v


def psi_count(x: int, y: int) -> int:
    """Exact number of y-smooth integers in [1, x]."""
    if x < 1:
        raise ValueError(f"psi_count requires x >= 1, got {x}")
    if x > PSI_X_LIMIT:
        raise RangeError(f"psi_count supports x <= {PSI_X_LIMIT}, got {x}")
    if y < 2:
        raise ValueError(f"psi_count requires y >= 2, got {y}")
    k = _ensure_primes(y)
    return _psi(x, k)


def psi_count_table(xmax: int, y: int) -> np.ndarray:
    """Psi(x, y) for every x in 0..xmax at once, by the same recursion swept bottom-up."""
    if xmax < 1 or xmax > 10**8:
        raise ValueError(f"psi_count_table supports 1 <= xmax <= 1e8, got {xmax}")
    if y < 2:
        raise ValueError(f"psi_count_table requires y >= 2, got {y}")
    xs = np.arange(xmax + 1, dtype=np.int64)
    # base: count of powers of two <= x, i.e. bit_length(x) for x >= 1
    table = np.zeros(xmax + 1, dtype=np.int64)
    table[1:] = np.frexp(xs[1:].astype(np.float64))[1]
    for p in primes_up_to(y):
        if p == 2:
            continue
        # block [p^j, p^(j+1)) reads only indices < p^j, already final
        lo = p
        while lo <= xmax:
            hi = min(lo * p - 1, xmax)
            idx = np.arange(lo, hi + 1)
            table[idx] += table[idx // p]
            lo *= p
    return table


@dataclass(frozen=True)
class DickmanGrid:
    """Solution values of the delay equation u r'(u) = -r(u-1) on a uniform grid."""

    step: float
    values: np.ndarray  # values[i] = rho(i * step)

    def at_index(self, i: int) -> float:
        return float(self.values[i])

    def residuals(self) -> np.ndarray:
        """Central-difference residual u rho'(u) + rho(u-1) on interior points with u > 1."""
        h = self.step
        M = round(1.0 / h)
        v = self.values
        out = []
        for i in range(M + 1, len(v) - 1):
            deriv = (v[i + 1] - v[i - 1]) / (2 * h)
            out.append(i * h * deriv + v[i - M])
        return np.array(out)


@lru_cache(maxsize=32)
def _raw_grid(n_steps: int, h: float) -> tuple[float, ...]:
    # u * rho(u) = integral_{u-1}^{u} rho, advanced by trapezoid steps
    M = round(1.0 / h)
    if abs(M * h - 1.0) > 1e-12:
        raise ValueError(f"step {h} must divide 1 exactly")
    rho = [1.0] * (M + 1)
    for i in range(M + 1, n_steps + 1):
        u = i * h
        window = 0.5 * rho[i - M] + math.fsum(rho[i - M + 1 : i])
        rho.append(h * window / (u - 0.5 * h))
    return tuple(rho)


def dickman_grid(u_max: float, h: float = 0.005) -> DickmanGrid:
    """Richardson-extrapolated grid (steps h and h/2) of the Dickman function."""
    if h > 0.01:
        raise ValueError(f"step must be <= 0.01, got {h}")
    if u_max > 50:
        raise ValueError(f"u_max must be <= 50, got {u_max}")
    n = int(math.ceil(u_max / h - 1e-9))
    coarse = _raw_grid(n, h)
    fine = _raw_grid(2 * n, h / 2)
    vals = np.array([(4.0 * fine[2 * i] - coarse[i]) / 3.0 for i in range(n + 1)])
    return DickmanGrid(h, vals)


def dickman(u: float, h: float = 0.005) -> float:
    """rho(u) to ~1e-7 for u <= 10 (exact 1 on [0,1])."""
    if u < 0:
        raise ValueError(f"dickman requires u >= 0, got {u}")
    if u <= 1.0:
        return 1.0
    g = dickman_grid(u + 2 * h, h)
    i = int(u / h)
    if abs(i * h - u) < 1e-12:
        return g.at_index(i)
    # 4-point Lagrange interpolation on the extrapolated grid
    i0 = min(max(i - 1, 0), len(g.values) - 4)
    xs = np.array([(i0 + j) * h for j in range(4)])
    ys = g.values[i0 : i0 + 4]
    out = 0.0
    for j in range(4):
        lj = 1.0
        for t in range(4):
            if t != j:
                lj *= (u - xs[t]) / (xs[j] - xs[t])
        out += ys[j] * lj
    return float(out)


def dickman_mass(u_max: float, h: float = 0.005) -> float:
    """Simpson integral of rho over [0, u_max]; within 1e-3 of e^gamma once u_max >= 15."""
    g = dickman_grid(u_max, h)
    v = g.values
    n = len(v) - 1
    if n % 2 == 1:
        # composite Simpson on the even prefix plus one trapezoid panel
        simpson = (v[0] + v[n - 1] + 4 * np.sum(v[1 : n - 1 : 2]) + 2 * np.sum(v[2 : n - 1 : 2])) * h / 3
        return float(simpson + 0.5 * h * (v[n - 1] + v[n]))
    simpson = (v[0] + v[n] + 4 * np.sum(v[1:n:2]) + 2 * np.sum(v[2:n:2])) * h / 3
    return float(simpson)


class MertensResult(NamedTuple):
    product: float
    scaled: float
    rel_dev: float


def mertens_product(x: int) -> MertensResult:
    """prod_{p<=x}(1 - 1/p), its log(x)-scaling, and the relative deviation from e^-gamma."""
    if x < 3:
        raise ValueError(f"mertens_product requires x >= 3, got {x}")
    ps = primes_up_to(x)
    log_prod = math.fsum(math.log1p(-1.0 / p) for p in ps)
    product = math.exp(log_prod)
    scaled = math.log(x) * product
    target = math.exp(-EULER_GAMMA)
    return MertensResult(product, scaled, abs(scaled - target) / target)


class SequenceSpec:
    """A bounded sequence of values in [0,1] over the positive integers."""

    def __init__(self, tag: str, fn: Callable[[int], float]):
        self.tag = tag
        self._fn = fn

    def value(self, m: int) -> float:
        v = self._fn(m)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"sequence value {v} at {m} leaves [0, 1]")
        return v

    @classmethod
    def const_one(cls) -> "SequenceSpec":
        return cls("const-one", lambda m: 1.0)

    @classmethod
    def const_zero(cls) -> "SequenceSpec":
        return cls("const-zero", lambda m: 0.0)

    @classmethod
    def prime_indicator(cls) -> "SequenceSpec":
        return cls("primes", lambda m: 1.0 if is_prime(m) else 0.0)

    @classmethod
    def square_indicator(cls) -> "SequenceSpec":
        return cls("squares", lambda m: 1.0 if math.isqrt(m) ** 2 == m else 0.0)

    @classmethod
    def custom(cls, values: Sequence[float]) -> "SequenceSpec":
        vals = list(values)

        def fn(m: int) -> float:
            return vals[m - 1] if 1 <= m <= len(vals) else 0.0

        return cls("custom", fn)


class SmoothSum(NamedTuple):
    value: float
    truncation_share: float


def smooth_harmonic_sum(n_primes: int, a: SequenceSpec, C: int) -> SmoothSum:
    """prod_{p in first n primes}(1 - 1/p) * sum_{m smooth, m <= C} a_m / m.

    The truncation share is the same prefactor times the exact harmonic tail
    of the smooth monoid beyond C (from the Euler product identity).
    """
    ps = first_primes(n_primes)
    F = PrimeSet.of(ps)
    prefactor = math.prod(1.0 - 1.0 / p for p in ps)
    smooth = smooth_numbers(F, C)
    total = math.fsum(a.value(m) / m for m in smooth)
    harmonic_partial = math.fsum(1.0 / m for m in smooth)
    full_harmonic = 1.0 / prefactor
    share = prefactor * (full_harmonic - harmonic_partial)
    return SmoothSum(prefactor * total, share)


def density_sum(J: SequenceSpec, n_primes: int, C: int) -> list[tuple[int, float]]:
    """Trend rows (n, scaled smooth sum of the indicator) for n = 3 .. n_primes."""
    if n_primes < 3:
        raise ValueError("density_sum reports the trend from n = 3 upward")
    return [(n, smooth_harmonic_sum(n, J, C).value) for n in range(3, n_primes + 1)]


NuHat = Mapping[int, complex] | Callable[[int], complex]


def wiener_sum(
    nu_hat: NuHat,
    n_primes: int,
    B: PrimeSet,
    ell: int,
    k: int,
    C: int,
) -> complex:
    """(1/zeta_n(1)) * sum over (first-n-primes \\ B)-smooth m <= C of nu_hat(l m + k)/m.

    The normalizer is the full Euler product over all first n primes.  For a
    nonatomic source the sums vanish as n grows; atomic sources keep them
    bounded away from zero.
    """
    if ell == 0:
        raise ValueError("wiener_sum requires ell != 0")
    ps = first_primes(n_primes)
    prefactor = math.prod(1.0 - 1.0 / p for p in ps)
    allowed = PrimeSet.of([p for p in ps if p not in B])
    if callable(nu_hat):
        lookup = nu_hat
    else:
        table = dict(nu_hat)
        lookup = lambda j: table.get(j, 0j)  # noqa: E731
    acc = 0j
    for m in smooth_numbers(allowed, C):
        c = complex(lookup(ell * m + k))
        if c != 0j:
            if abs(c) > 1.0 + 1e-12:
                raise ValueError(f"|nu_hat({ell * m + k})| = {abs(c)} exceeds 1")
            acc += c / m
    return prefactor * acc


class DeltaEstimate(NamedTuple):
    value: float
    s_max: float
    truncated: bool


def delta_estimate(u: float, x: int, n_points: int = 64) -> DeltaEstimate:
    """Trapezoid estimate of the smooth-ratio integral int_u^inf Psi(x^s, x)/x^s ds.

    s_max is pushed until the integrand drops below 1e-6 or x^s would leave
    the exact counter's desk range (then the result is flagged truncated).
    """
    if u < 1:
        raise ValueError(f"delta_estimate requires u >= 1, got {u}")
    if x > 1000 or x < 3:
        raise ValueError(f"delta_estimate requires 3 <= x <= 1000, got {x}")
    log_cap = math.log(_DELTA_CAP) / math.log(x)
    s_max = u
    truncated = True
    while s_max + 0.25 <= log_cap:
        s_max += 0.25
        ratio = psi_count(int(x**s_max), x) / x**s_max
        if ratio < 1e-6:
            truncated = False
            break
    grid = np.linspace(u, s_max, n_points)
    vals = [psi_count(int(x**s), x) / x**s for s in grid]
    integral = sum(
        0.5 * (grid[i + 1] - grid[i]) * (vals[i] + vals[i + 1])
        for i in range(len(grid) - 1)
    )
    return DeltaEstimate(float(integral), s_max, truncated)
