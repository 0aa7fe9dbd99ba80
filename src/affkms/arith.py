"""Exact integer arithmetic and the special functions used everywhere else.

Integers are treated as 64-bit quantities: products that would leave
[-(2^63), 2^63) raise :class:`RangeError`.  Real arithmetic is double
precision.  All functions here are pure; the prime table and factorization
memo are write-once caches guarded by a lock, so concurrent callers always
observe a consistent view.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

INT64_MAX = 2**63 - 1

_SIEVE_LIMIT = 10**6

# bytes of the largest working set a kernel may allocate: the 2^m x K
# verifier frontier, the level-K vectors of the measure operators, the atoms
# of epsilon and extremal_measure, the class sums of residue_weights, the Psi
# engine's node arrays and the Psi sieve table
ARRAY_BYTES_LIMIT = 128 * 2**20

# bytes one residue class costs in residue_weights: its Python float and its
# list slot.  tracemalloc's peak per class was 32.0-32.5 B for q from 10^4 to
# 4 * 10^5.
RESIDUE_BYTES = 33

# bytes one member of a smooth monoid costs once listed: its int64 slot, its
# Python int and its list slot.  tracemalloc's peak per member was 47.9-48.0 B
# for 4 * 10^4 to 7 * 10^5 members.
SMOOTH_BYTES = 48

# deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class RangeError(ValueError):
    """An operation left the supported 64-bit / desk-scale range."""


def charge(what: str, size: int) -> None:
    """Raise :class:`RangeError` when size bytes exceed ``ARRAY_BYTES_LIMIT``."""
    if size > ARRAY_BYTES_LIMIT:
        raise RangeError(
            f"{what} needs {size / 2**20:.0f} MiB, "
            f"over the {ARRAY_BYTES_LIMIT // 2**20} MiB limit"
        )


def require(what: str, name: str, value: float, *, gt=None, ge=None, le=None) -> None:
    """Raise ``ValueError`` unless value is finite and within the given bounds."""
    if not math.isfinite(value):
        raise ValueError(f"{what} requires a finite {name}, got {value}")
    if not ((gt is None or value > gt) and (ge is None or value >= ge) and (le is None or value <= le)):
        if le is None:
            rule = f"{name} > {gt}" if gt is not None else f"{name} >= {ge}"
        else:
            low = f"{gt} < " if gt is not None else f"{ge} <= " if ge is not None else ""
            rule = f"{low}{name} <= {le}"
        raise ValueError(f"{what} requires {rule}, got {value}")


def checked_mul(a: int, b: int) -> int:
    r = a * b
    if abs(r) > INT64_MAX:
        raise RangeError(f"product {a} * {b} leaves the 64-bit range")
    return r


_prime_lock = threading.Lock()
_prime_table: list[int] | None = None
_prime_array: np.ndarray | None = None


def _primes() -> list[int]:
    """Primes up to 10^6, sieved once and immutable afterwards."""
    global _prime_table, _prime_array
    if _prime_table is None:
        with _prime_lock:
            if _prime_table is None:
                composite = np.zeros(_SIEVE_LIMIT + 1, dtype=bool)
                composite[:2] = True
                for i in range(2, int(_SIEVE_LIMIT**0.5) + 1):
                    if not composite[i]:
                        composite[i * i :: i] = True
                _prime_array = np.flatnonzero(~composite).astype(np.int64, copy=False)
                _prime_array.setflags(write=False)
                _prime_table = _prime_array.tolist()
    return _prime_table


def prime_array() -> np.ndarray:
    """Primes up to 10^6 as a read-only ascending int64 array, from the same sieve as the list."""
    _primes()
    return _prime_array


def primes_up_to(x: int) -> list[int]:
    if x > _SIEVE_LIMIT:
        raise RangeError(f"prime table covers up to {_SIEVE_LIMIT}, got {x}")
    ps = _primes()
    return ps[: bisect_right(ps, x)]


def first_primes(k: int) -> list[int]:
    if k < 0:
        raise ValueError(f"first_primes requires k >= 0, got {k}")
    ps = _primes()
    if k > len(ps):
        raise RangeError(f"only {len(ps)} primes precomputed, requested {k}")
    return ps[:k]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its ordered prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@lru_cache(maxsize=200_000)
def _factor_tuple(n: int) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    m = n
    for p in _primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        # cofactor with no prime divisor <= 10^6; certify it before accepting
        if not is_prime(m):
            raise RangeError(f"{n} has a composite cofactor {m} beyond desk scale")
        out.append((m, 1))
    return tuple(out)


def factorize(n: int) -> Factorization:
    """Prime factorization of n, 1 <= n < 2^63; factorize(1) is the empty product."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > INT64_MAX:
        raise RangeError(f"factorize requires n < 2^63, got {n}")
    return Factorization(n, _factor_tuple(n))


def mobius(n: int) -> int:
    f = factorize(n).factors
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def totient(n: int) -> int:
    """Euler's phi, exactly, by integer arithmetic on the factorization."""
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def totient_beta(n: int, beta: float) -> float:
    """Generalized totient n^beta * prod_{p|n} (1 - p^-beta).

    Euler's phi at beta=1; the indicator of n=1 at beta=0.
    """
    require("totient_beta", "beta", beta, ge=0)
    f = factorize(n).factors
    out = float(n) ** beta
    for p, _ in f:
        out *= 1.0 - float(p) ** -beta
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


@dataclass(frozen=True)
class PrimeSet:
    """A finite sorted set of distinct primes."""

    primes: tuple[int, ...]

    def __post_init__(self):
        ps = self.primes
        if list(ps) != sorted(set(ps)):
            raise ValueError("primes must be sorted and distinct")
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def of(cls, primes: Iterable[int]) -> "PrimeSet":
        return cls(tuple(sorted(set(primes))))

    @classmethod
    def first_n(cls, n: int) -> "PrimeSet":
        return cls(tuple(first_primes(n)))

    @classmethod
    def dividing(cls, n: int) -> "PrimeSet":
        return cls(factorize(n).prime_divisors())

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def __contains__(self, p) -> bool:
        return p in self.primes


def smooth_array(F: PrimeSet, bound: int) -> np.ndarray:
    """The monoid generated by F in [1, bound] as one ascending int64 array.

    It is built one prime at a time: the members so far times p, p^2, ...
    while the product stays <= bound.  Raises :class:`RangeError` for
    bound >= 2^63, and before building a part that would take the array and
    the list of :func:`smooth_numbers` past ``ARRAY_BYTES_LIMIT`` bytes.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > INT64_MAX:
        raise RangeError(f"smooth_numbers requires bound < 2^63, got {bound}")
    monoid = np.ones(1, dtype=np.int64)
    for p in F.primes:
        parts = [monoid]
        size = monoid.size
        part = monoid[monoid <= bound // p]
        while part.size:
            size += part.size
            charge(f"smooth_numbers of {len(F)} primes up to {bound} lists more than {size} integers and",
                   size * SMOOTH_BYTES)
            part = part * p
            parts.append(part)
            part = part[part <= bound // p]
        monoid = np.concatenate(parts)
    monoid.sort()
    return monoid


def smooth_numbers(F: PrimeSet, bound: int) -> list[int]:
    """All members of the multiplicative monoid generated by F in [1, bound], ascending."""
    return smooth_array(F, bound).tolist()


def squarefree_products(F: PrimeSet) -> list[int]:
    """Square-free products of primes in F (the support of mu on the F-smooth monoid)."""
    out = [1]
    for p in F:
        out += [d * p for d in out]
    return sorted(out)


def partial_zeta(F: PrimeSet, beta: float) -> float:
    """Euler product prod_{p in F} (1 - p^-beta)^-1, the partition function of F."""
    if len(F) == 0:
        return 1.0
    require("partial_zeta", "beta", beta, gt=0)
    out = 1.0
    for p in F:
        out /= 1.0 - float(p) ** -beta
    return out


def mobius_invert(g: Mapping[int, float], N: int) -> dict[int, float]:
    """Solve g(n) = sum_{d|n} f(d) on the divisor lattice of N for f.

    g must carry a value for every divisor of N.
    """
    divs = divisors(N)
    missing = [d for d in divs if d not in g]
    if missing:
        raise ValueError(f"g is missing divisor keys {missing} of {N}")
    f: dict[int, float] = {}
    for n in divs:
        f[n] = sum(mobius(n // d) * g[d] for d in divisors(n))
    return f


# Bernoulli numbers B_2, B_4, B_6, B_8 for the Euler-Maclaurin tail
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)
_EM_HEAD = 30
_TWO_PI_8 = (2.0 * math.pi) ** 8


def hurwitz_zeta_bounded(beta: float, a: float) -> tuple[float, float]:
    """(zeta(beta, a), a rigorous bound on the Euler-Maclaurin remainder), beta > 1, a in (0, 1].

    sum_{n>=0} (n+a)^-beta as a fixed head of 30 terms, the exact pole term
    x^(1-beta)/(beta-1) and four Bernoulli corrections at x = 30 + a.  The
    remainder obeys |R| <= 4 (beta)_8 / (2 pi)^8 * x^(1-beta-8) / (beta+7)
    (Johansson, arXiv:1309.2877, Thm 1), which equals 4 (beta)_7 x^(-beta-7) / (2 pi)^8.
    """
    require("hurwitz_zeta", "beta", beta, gt=1)
    require("hurwitz_zeta", "a", a, gt=0, le=1)
    x = _EM_HEAD + a
    terms = [(k + a) ** -beta for k in range(_EM_HEAD)]
    terms.append(x ** (1.0 - beta) / (beta - 1.0))
    terms.append(0.5 * x**-beta)
    rising = beta  # (beta)_(2j-1) for the j-th correction
    for j, b2j in enumerate(_BERNOULLI, start=1):
        terms.append(b2j / math.factorial(2 * j) * rising * x ** (-beta - 2 * j + 1))
        rising *= (beta + 2 * j - 1) * (beta + 2 * j)
    rising7 = rising / ((beta + 7.0) * (beta + 8.0))
    return math.fsum(terms), 4.0 * rising7 * x ** (-beta - 7.0) / _TWO_PI_8


def hurwitz_zeta(beta: float, a: float) -> float:
    """sum_{n>=0} (n+a)^-beta for beta > 1 and a in (0, 1]."""
    return hurwitz_zeta_bounded(beta, a)[0]


def zeta(beta: float) -> float:
    """Riemann zeta for beta > 1."""
    return hurwitz_zeta(beta, 1.0)


def residue_weights(q: int, beta: float) -> tuple[list[float], float]:
    """Class sums w[r] = sum_{c >= 1, c = r mod q} c^-beta, r = 0..q-1, and their error bound.

    w[r] = q^-beta zeta(beta, r/q), with a = 1 for the class r = 0, so that
    sum(w) = zeta(beta).  The second value bounds sum_r |w[r] - exact w[r]|.
    Raises :class:`RangeError` before the first Hurwitz call when the q class
    sums would exceed ``ARRAY_BYTES_LIMIT`` bytes.
    """
    if q < 1:
        raise ValueError(f"residue_weights requires q >= 1, got {q}")
    require("residue_weights", "beta", beta, gt=1)
    charge(f"residue_weights over q = {q} classes", q * RESIDUE_BYTES)
    scale = float(q) ** -beta
    weights = []
    err = 0.0
    for r in range(q):
        value, bound = hurwitz_zeta_bounded(beta, r / q if r else 1.0)
        weights.append(scale * value)
        err += scale * bound
    return weights, err
