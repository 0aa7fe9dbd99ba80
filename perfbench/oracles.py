"""Reference computations the benchmark checks the program against.

Nothing here imports affkms.  Each function recomputes a quantity from its
definition, by a route that differs from the program's where one exists:
integer totients from trial division, Fourier moments from Ramanujan sums,
residue-class series from mpmath's Hurwitz zeta, smooth counts from a
sieve, a collision-free recursion or Lucy prime counting.  mpmath is
imported only when a function needs it, so it never runs inside a timed
phase.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.57721566490153286061


# ---- integer arithmetic ---------------------------------------------------


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def totient(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def totient_beta(n: int, beta: float) -> float:
    out = float(n) ** beta
    for p, _ in factor(n):
        out *= 1.0 - float(p) ** -beta
    return out


def ramanujan_sum(d: int, k: int) -> int:
    """sum of e(jk/d) over j coprime to d, exactly: sum_{e | gcd(d,k)} mu(d/e) e."""
    g = math.gcd(d, k)
    return sum(mobius(d // e) * e for e in divisors(g))


# ---- measures on roots of unity -------------------------------------------
# A measure here is a dict {Fraction in [0, 1): weight}.


def extremal_atoms(n: int, beta: float) -> dict[Fraction, float]:
    """nu_{beta,n}: weight n^-beta phi_beta(d)/phi(d) on each root of exact order d | n."""
    out = {}
    for d in divisors(n):
        w = float(n) ** -beta * totient_beta(d, beta) / totient(d)
        for j in range(d):
            if math.gcd(j, d) == 1:
                out[Fraction(j, d)] = w
    return out


def mixture_atoms(coeffs: dict[int, float], beta: float) -> dict[Fraction, float]:
    out: dict[Fraction, float] = {}
    for n, c in coeffs.items():
        for z, w in extremal_atoms(n, beta).items():
            out[z] = out.get(z, 0.0) + c * w
    return out


def extremal_moment(n: int, beta: float, k: int) -> float:
    """k-th Fourier moment of nu_{beta,n}, summed over orders through Ramanujan sums."""
    return sum(
        float(n) ** -beta * totient_beta(d, beta) / totient(d) * ramanujan_sum(d, k)
        for d in divisors(n)
    )


def moment(atoms: dict[Fraction, float], k: int) -> complex:
    acc = 0j
    for z, w in atoms.items():
        phase = (z * k) % 1
        acc += w * complex(math.cos(2 * math.pi * phase), math.sin(2 * math.pi * phase))
    return acc


def max_diff(a: dict, b: dict) -> float:
    return max((abs(a.get(z, 0.0) - b.get(z, 0.0)) for z in set(a) | set(b)), default=0.0)


def apply_A_F_at(atoms: dict[Fraction, float], beta: float, F: tuple[int, ...], z: Fraction) -> float:
    """(A_{beta,F} nu)({z}) = sum over square-free d from F of mu(d) d^-beta nu(w : w^d = z).

    Phases are exact fractions; only the weights are floats.
    """
    total = 0.0
    for mask in range(1 << len(F)):
        d = 1
        for i, p in enumerate(F):
            if mask >> i & 1:
                d *= p
        sign = -1 if bin(mask).count("1") % 2 else 1
        pulled = sum(w for w_z, w in atoms.items() if (w_z * d) % 1 == z)
        total += sign * float(d) ** -beta * pulled
    return total


# ---- Hurwitz zeta and residue-class series (mpmath) -----------------------


def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def hurwitz(beta: float, a: float) -> float:
    mp = _mp()
    return float(mp.zeta(mp.mpf(beta), mp.mpf(a)))


@lru_cache(maxsize=None)
def residue_weights(q: int, beta: float) -> tuple[float, ...]:
    """w[r] = sum_{c >= 1, c = r mod q} c^-beta / zeta(beta) for r = 0..q-1.

    Uses sum_{c = r (q)} c^-beta = q^-beta zeta(beta, r/q), with r = q for the class of 0.
    """
    mp = _mp()
    b = mp.mpf(beta)
    z = mp.zeta(b)
    out = []
    for r in range(q):
        rr = r if r else q
        out.append(float(mp.power(q, -b) * mp.zeta(b, mp.mpf(rr) / q) / z))
    return tuple(out)


def series_moment(atoms: dict[Fraction, float], beta: float, k: int) -> complex:
    """sum_c c^-beta nu^(kc) / zeta(beta), exactly, for a measure on the level-q roots."""
    q = math.lcm(*(z.denominator for z in atoms)) if atoms else 1
    w = residue_weights(q, beta)
    return sum(w[r] * moment(atoms, k * r) for r in range(q))


def t_beta_image(atoms: dict[Fraction, float], beta: float) -> dict[Fraction, float]:
    """Exact T_beta nu = sum_c c^-beta (z -> z^c)_* nu / zeta(beta)."""
    q = math.lcm(*(z.denominator for z in atoms)) if atoms else 1
    w = residue_weights(q, beta)
    out: dict[Fraction, float] = {}
    for z, wz in atoms.items():
        for r in range(q):
            t = (z * r) % 1
            out[t] = out.get(t, 0.0) + wz * w[r]
    return out


def limit_distance(z: Fraction, beta: float) -> float:
    """Total-variation distance of T_beta delta_z from the uniform measure on its order's roots."""
    mp = _mp()
    q = z.denominator
    b = mp.mpf(beta)
    zfull = mp.zeta(b)
    total = mp.mpf(0)
    for r in range(1, q + 1):
        total += abs(mp.power(q, -b) * mp.zeta(b, mp.mpf(r) / q) / zfull - mp.mpf(1) / q)
    return float(total)


# ---- smooth-number counting -----------------------------------------------

SIEVE_LIMIT = 10**7


def small_primes(limit: int) -> list[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags).tolist()


def psi_table(xmax: int, y: int) -> np.ndarray:
    """Psi(n, y) for all n <= xmax by dividing out every prime <= y (a sieve)."""
    rem = np.arange(xmax + 1, dtype=np.int64)
    for p in small_primes(min(y, xmax)):
        pe = p
        while pe <= xmax:
            rem[pe::pe] //= p
            pe *= p
    smooth = rem == 1
    smooth[0] = False
    return np.cumsum(smooth, dtype=np.int64)


class PsiOracle:
    """Exact Psi(x, y): sieve tables up to 10^7, and above that a memoized
    recursion, or Lucy prime counting when y >= sqrt(x).

    The recursion is Psi(x, p_k) = bitlen(x) + sum_{i<=k} Psi(x // p_i, p_i),
    where a prime p_i > sqrt(x) contributes floor(x / p_i) directly.  Its memo
    is keyed by the pair (x, k), so entries cannot collide.  When y >= sqrt(x)
    the count is x - sum_{y < p <= x} floor(x / p).
    """

    def __init__(self, prime_limit: int = 20_000):
        self.primes = small_primes(prime_limit)
        self._memo: dict[tuple[int, int], int] = {}

    def counts(self, pairs: list[tuple[int, int]]) -> list[int]:
        """Psi(x, y) for each (x, y); one sieve table serves all small x sharing a y."""
        out: dict[tuple[int, int], int] = {}
        small: dict[int, list[int]] = {}
        for x, y in pairs:
            if x <= SIEVE_LIMIT:
                small.setdefault(y, []).append(x)
            elif y * y >= x:
                out[(x, y)] = self.lucy(x, y)
            else:
                out[(x, y)] = self.recursive(x, y)
        for y, xs in small.items():
            table = psi_table(max(xs), y)
            for x in xs:
                out[(x, y)] = int(table[x])
        return [out[p] for p in pairs]

    def _index(self, y: int) -> int:
        if y > self.primes[-1]:
            raise ValueError(f"oracle primes stop at {self.primes[-1]}, got y = {y}")
        return bisect_right(self.primes, y) - 1

    def recursive(self, x: int, y: int) -> int:
        return self._rec(x, self._index(y))

    def _rec(self, x: int, k: int) -> int:
        if x < 2:
            return max(x, 0)
        P = self.primes
        k = min(k, bisect_right(P, x) - 1)
        if k <= 0:
            return x.bit_length()
        key = (x, k)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        j = min(k, bisect_right(P, math.isqrt(x)) - 1)
        total = x.bit_length()
        for i in range(1, j + 1):
            total += self._rec(x // P[i], i)
        for i in range(max(j, 0) + 1, k + 1):
            total += x // P[i]
        self._memo[key] = total
        return total

    def lucy(self, x: int, y: int) -> int:
        """Psi(x, y) for y >= sqrt(x): x minus the integers with a prime factor above y."""
        r = math.isqrt(x)
        if y < r:
            raise ValueError("the Lucy route needs y >= sqrt(x)")
        pi_y = self._index(y) + 1
        # small[v] = pi(v) for v <= r and large[i] = pi(x // i) for i <= r, once sieved
        small = np.arange(-1, r, dtype=np.int64)
        small[0] = 0
        large = np.array([0] + [x // i - 1 for i in range(1, r + 1)], dtype=np.int64)
        for p in range(2, r + 1):
            if small[p] == small[p - 1]:
                continue
            sp = small[p - 1]
            p2 = p * p
            lim = min(r, x // p2)
            d = np.arange(1, lim + 1, dtype=np.int64) * p
            inner = np.where(d <= r, large[np.minimum(d, r)], small[np.minimum(x // d, r)])
            large[1 : lim + 1] -= inner - sp
            if p2 <= r:
                v = np.arange(p2, r + 1, dtype=np.int64)
                small[v] -= small[v // p] - sp
        # sum_{y < p <= x} floor(x / p) = sum over m with x // m > y of (pi(x // m) - pi(y))
        above = sum(int(large[m]) - pi_y for m in range(1, x // y + 1) if x // m > y)
        return x - above


# ---- Dickman function -----------------------------------------------------


def dickman_rho(u: float) -> float:
    """rho(u) on [0, 3]: 1 - ln u on [1, 2]; on [2, 3] by quadrature of rho(u) = rho(2) - int_2^u rho(t-1)/t dt."""
    if u <= 1:
        return 1.0
    if u <= 2:
        return 1.0 - math.log(u)
    if u > 3:
        raise ValueError("dickman oracle covers u <= 3")
    mp = _mp()
    val = 1 - mp.log(2) - mp.quad(lambda t: (1 - mp.log(t - 1)) / t, [2, u])
    return float(val)


# ---- smooth harmonic sums -------------------------------------------------


def smooth_upto(primes: list[int], bound: int) -> list[int]:
    out = [1]
    for p in primes:
        grown = []
        for m in out:
            v = m * p
            while v <= bound:
                grown.append(v)
                v *= p
        out += grown
    return sorted(out)
