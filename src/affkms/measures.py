"""Atomic measures on roots of unity and the subconformality machinery.

A measure is a finite weighted set of reduced rational points p/q of the
circle.  Phases stay exact fractions until the final trigonometric call in
:func:`moments`.  The central objects:

* wrap-around pushforward  omega_d: z -> z^d,
* the operators  A_{beta,n} nu = sum_{d|n} mu(d) d^-beta omega_d* nu  and
  their positive inverses (pushes on a fixed root level),
* the extremal measures  nu_{beta,n}  with atom n^-beta phi_beta(ord z)/phi(ord z)
  on each z with ord(z) | n, and the convex decomposition of an arbitrary
  non-negative measure into them,
* the normalized low-temperature series  T_beta = zeta(beta)^-1 sum_c c^-beta omega_c*.

Measures are immutable values; every operation returns a fresh measure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import cos, fsum, gcd, isfinite, lcm, pi, prod, sin
from typing import Iterable, Mapping

import numpy as np

from .arith import (
    INT64_MAX,
    PrimeSet,
    RangeError,
    charge,
    divisors,
    factorize,
    mobius,
    primes_up_to,
    require,
    residue_weights,
    totient,
    totient_beta,
    zeta,
)

# bytes per atom while an operation builds a measure: three array entries and
# the index, gcd and sort temporaries.  tracemalloc's peak per atom was 72 B for
# the images of pushforward and t_beta_exact_root and 48 B per root for
# extremal_measure(n) at 10^5 to 10^6 atoms; epsilon(n) took 17 B per root.
ATOM_ARRAY_BYTES = 72

# pushforward, apply_A and t_beta refuse with RangeError, before allocating,
# what would exceed ARRAY_BYTES_LIMIT: per root, the first two hold three
# level-K vectors (input, output, the push's int64 column index) and t_beta
# five; per term, t_beta folds the series with three length-C vectors.
# tracemalloc's peaks were 24.0, 40.0 and 24.0 B at K from 10^5 to 1.3 * 10^6
# and C from 10^5 to 3 * 10^6.
PUSH_BYTES = 24
T_BETA_ROOT_BYTES = 40
T_BETA_TERM_BYTES = 24


@dataclass(frozen=True, order=True)
class RootOfUnity:
    """A reduced fraction num/den representing exp(2*pi*i*num/den); den = order."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1 or not 0 <= self.num < self.den or gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not a reduced circle point")

    @property
    def order(self) -> int:
        return self.den

    def pow(self, e: int) -> "RootOfUnity":
        return root(self.num * e, self.den)

    def __str__(self):
        return f"{self.num}/{self.den}"


def root(num: int, den: int) -> RootOfUnity:
    """Reduce num/den modulo 1 to the canonical representative."""
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    num %= den
    g = gcd(num, den)
    return RootOfUnity(num // g, den // g)


ONE = RootOfUnity(0, 1)


class AtomicMeasure:
    """Finite weighted atoms on roots of unity; weights may be signed in intermediates.

    The atoms are parallel arrays num, den (int64) and weight (float64), sorted by
    (den, num): the order :func:`measure_to_dict` writes and sums over atoms run in.
    Repeated roots add up in the order given, weights and sums 0 are dropped, and an
    order of 2^63 or more raises :class:`RangeError`.
    """

    __slots__ = ("_atoms", "signed", "_level")

    def __init__(
        self,
        atoms: Mapping[RootOfUnity, float] | Iterable[tuple[RootOfUnity, float]] = (),
        *,
        signed: bool = False,
        level: int | None = None,
    ):
        acc: dict[tuple[int, int], float] = {}
        for z, w in atoms.items() if isinstance(atoms, Mapping) else atoms:
            acc[z.den, z.num] = acc.get((z.den, z.num), 0.0) + w
        keys = sorted(key for key, w in acc.items() if w != 0.0)
        if keys and keys[-1][0] > INT64_MAX:
            z = RootOfUnity(keys[-1][1], keys[-1][0])
            raise RangeError(f"atom {z} has order {z.den}, beyond the 64-bit range")
        dens, nums = zip(*keys) if keys else ((), ())
        arrays = (np.array(nums, dtype=np.int64), np.array(dens, dtype=np.int64),
                  np.array([acc[k] for k in keys], dtype=np.float64))
        if level is not None:
            if level < 1:
                raise ValueError(f"level must be >= 1, got {level}")
            _check_level(arrays, level)
        self._set(arrays, signed, level)

    def _set(self, arrays, signed, level) -> "AtomicMeasure":
        for name, value in zip(self.__slots__, (arrays, signed, level)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):  # measures are values
        raise AttributeError("AtomicMeasure is immutable")

    def atoms(self) -> dict[RootOfUnity, float]:
        """The atoms as a new dict, in (den, num) order."""
        return {RootOfUnity(j, d): w for j, d, w in zip(*(a.tolist() for a in self._atoms))}

    def weight(self, z: RootOfUnity) -> float:
        num, den, w = self._atoms
        return float(w[(den == z.den) & (num == z.num)].sum())

    def mass(self) -> float:
        return sum(self._atoms[2].tolist())

    def variation(self) -> float:
        """Total variation: the sum of |weight| over the atoms."""
        return sum(np.abs(self._atoms[2]).tolist())

    def min_weight(self) -> float:
        return float(self._atoms[2].min()) if len(self) else 0.0

    def support_level(self) -> int:
        """lcm of atom orders (declared level if one was given)."""
        if self._level is not None:
            return self._level
        return lcm(*set(self._atoms[1].tolist()))

    def scaled(self, c: float) -> "AtomicMeasure":
        num, den, w = self._atoms
        return _measure((num, den, c * w), self.signed or c < 0, self._level)

    def plus(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return _measure(_summed(self._atoms, other._atoms), self.signed or other.signed)

    def __len__(self):
        return len(self._atoms[2])

    def __repr__(self):
        inner = " + ".join(f"{w:.6g}*d({z})" for z, w in sorted(self.atoms().items()))
        return f"AtomicMeasure({inner or '0'})"


def _measure(arrays, signed: bool, level: int | None = None) -> AtomicMeasure:
    """The measure on (num, den, weight) sorted by (den, num) without repeats; weights 0 dropped."""
    keep = arrays[2] != 0.0
    return object.__new__(AtomicMeasure)._set(tuple(a[keep] for a in arrays), signed, level)


def _summed(*parts):
    """The (num, den, weight) parts joined and sorted by (den, num), repeated roots added in order."""
    num, den, w = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((num, den))
    num, den, w = num[order], den[order], w[order]
    first = np.ones(len(w), dtype=bool)
    first[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
    return num[first], den[first], np.bincount(np.cumsum(first) - 1, weights=w)


def _divides(den: np.ndarray, k: int) -> np.ndarray:
    """Whether each order in den divides k, for an int k of any size."""
    if abs(k) <= INT64_MAX:
        return k % den == 0
    return np.array([k % d == 0 for d in den.tolist()], dtype=bool)


def _check_level(arrays, K: int) -> None:
    num, den, _ = arrays
    bad = np.flatnonzero(~_divides(den, K))
    if len(bad):
        atoms = [RootOfUnity(int(num[i]), int(den[i])) for i in bad]
        raise ValueError(f"atoms {atoms} do not live on the level-{K} roots")


def dirac(z: RootOfUnity) -> AtomicMeasure:
    return AtomicMeasure({z: 1.0})


def _difference(mu: AtomicMeasure, nu: AtomicMeasure) -> np.ndarray:
    """mu - nu on the union of their atoms, in (den, num) order."""
    num, den, w = nu._atoms
    return _summed(mu._atoms, (num, den, -w))[2]


def tv_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Total-variation norm of mu - nu (sum of absolute atom differences)."""
    return sum(np.abs(_difference(mu, nu)).tolist())


def max_atom_diff(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    return float(np.abs(_difference(mu, nu)).max(initial=0.0))


def pushforward(nu: AtomicMeasure, d: int) -> AtomicMeasure:
    """Image of nu under z -> z^d: one push on the K-th roots, K the support level."""
    if d < 1:
        raise ValueError(f"pushforward requires d >= 1, got {d}")
    K = nu.support_level()
    charge(f"pushforward at level K = {K}", K * PUSH_BYTES)
    out = np.empty((1, K))
    _push(_level_vector(nu, K)[None], d, out)
    return _from_level_vector(out[0], K, nu.signed)


def epsilon(n: int) -> AtomicMeasure:
    """Uniform probability measure on the primitive n-th roots of unity."""
    if n < 1:
        raise ValueError(f"epsilon requires n >= 1, got {n}")
    phi = totient(n)
    charge(f"epsilon({n}) with {phi} atoms", n * ATOM_ARRAY_BYTES)
    return _measure(_primitive_roots(n, 1.0 / phi), False)


def _primitive_roots(d: int, w: float):
    """Atom arrays of weight w on the primitive d-th roots, in numerator order."""
    j = np.arange(d, dtype=np.int64)
    j = j[np.gcd(j, d) == 1]
    return j, np.full(len(j), d, np.int64), np.full(len(j), w)


def apply_A(nu: AtomicMeasure, n: int, beta: float) -> AtomicMeasure:
    """A_{beta,n} nu = sum_{d|n} mu(d) d^-beta omega_d* nu (signed), on the K-th roots."""
    require("apply_A", "beta", beta)
    K = nu.support_level()
    charge(f"apply_A at level K = {K}", K * PUSH_BYTES)
    vec = _level_vector(nu, K)[None]
    _apply_A_rows(vec, n, beta, np.empty_like(vec))
    return _from_level_vector(vec[0], K, signed=True)


def apply_A_inv(
    nu: AtomicMeasure, n: int, beta: float, level: int | None = None
) -> AtomicMeasure:
    """The unique mu on the level-K roots with A_{beta,n} mu = nu.

    A_{beta,n} = prod_{p|n} (I - c_p P_p) with c_p = p^-beta and P_p the push
    by z -> z^p on the K-th roots; the factors commute.  Each factor is
    inverted by its Neumann series, summed to T = 2^s terms as
    sum_{t<T} c^t P^t = prod_{i<s} (I + c^(2^i) P^(2^i)), where P^(2^i) is the
    push by p^(2^i) mod K.  s is the least with c^T <= 2^-60 (1 - c), so the
    dropped tail c^T P^T (I - cP)^-1 v weighs at most 2^-60 |v|_1.  Every term
    is a positive multiple of a push: for beta > 0 the inverse is a positive
    operator, and prod_{p|n}(1-p^-beta) * mu is a probability measure whenever
    nu is.

    A_{beta,n} mu, applied by the same pushes, must equal nu within
    count * prod_p (1 + c_p) * (2^-53 M + K 2^-1074) in every atom, or
    :class:`RuntimeError`.  M = |nu|_1 / prod_p (1 - c_p) = |A^-1 |nu||_1 (that is
    |mu|_1 when nu >= 0) bounds every intermediate and, to first order, what one
    rounding of 2^-53 of a value (2^-1074 below the normal range) becomes in mu;
    A grows it by prod_p (1 + c_p).  count counts the roundings: g + 1 for each
    push by d of the solve and of the check, which sums g = gcd(d, K) entries
    into each root and is then scaled and added, and 1 for the final subtraction.
    Raises :class:`RangeError` before allocating when the K output atoms and
    the working vectors would exceed ``ARRAY_BYTES_LIMIT`` bytes, and
    ``ValueError`` when some p^-beta rounds to 1, where the series does not
    converge in float64.
    """
    require("apply_A_inv", "beta", beta, gt=0)
    K = level if level is not None else nu.support_level()
    # besides the atoms: rhs, mu, tmp, the residual and a push's column index, 8 B per root each
    charge(f"apply_A_inv at level K = {K}", K * (ATOM_ARRAY_BYTES + 40))
    cs = {p: float(p) ** -beta for p in PrimeSet.dividing(n)}
    rhs = _level_vector(nu, K)[None]
    mu, tmp = rhs.copy(), np.empty_like(rhs)
    count = 1 + sum(gcd(p, K) + 1 for p in cs)
    for p, c in cs.items():
        if c == 1.0:
            raise ValueError(f"apply_A_inv: {p}^-beta rounds to 1 at beta = {beta}")
        stop, d = 2.0**-60 * (1.0 - c), p
        while c > stop:
            _push(mu, d, tmp)
            tmp *= c
            mu += tmp
            count += gcd(d, K) + 1
            c, d = c * c, d * d % K
    res = mu.copy()
    _apply_A_rows(res, n, beta, tmp)
    res -= rhs
    residual = float(np.max(np.abs(res)))
    M = float(np.sum(np.abs(rhs))) / prod(1.0 - c for c in cs.values())
    bound = count * prod(1.0 + c for c in cs.values()) * (2.0**-53 * M + K * 2.0**-1074)
    if residual > bound:
        raise RuntimeError(f"A_inv solve residual {residual:.2e} exceeds {bound:.2e}")
    return _from_level_vector(mu[0], K, nu.signed)


def _apply_A_rows(rows: np.ndarray, n: int, beta: float, tmp: np.ndarray) -> None:
    """rows <- A_{beta,n} rows = prod_{p|n} (I - p^-beta P_p) rows in place; tmp is scratch."""
    for p in PrimeSet.dividing(n):
        _push(rows, p, tmp)
        rows -= np.multiply(tmp, float(p) ** -beta, out=tmp)


def _level_vector(nu: AtomicMeasure, K: int) -> np.ndarray:
    """The weights of nu as a length-K vector, entry j on the root j/K; K is charged already."""
    _check_level(nu._atoms, K)
    num, den, w = nu._atoms
    vec = np.zeros(K)
    vec[num * (K // den)] = w
    return vec


def _from_level_vector(vec: np.ndarray, K: int, signed: bool) -> AtomicMeasure:
    """The measure with weight vec[j] on the root j/K; its atoms are charged first."""
    j = np.flatnonzero(vec)
    charge(f"a measure of {len(j)} atoms", len(j) * ATOM_ARRAY_BYTES)
    g = np.gcd(j, K)
    return _measure(_summed((j // g, K // g, vec[j])), signed)


def _push(src: np.ndarray, d: int, out: np.ndarray) -> None:
    """Write the pushforward by z -> z^d of each row of src into out.

    Rows are weights on the K-th roots, column j on the root j/K; out has the
    shape of src and does not overlap it.  With g = gcd(d, K) and K' = K/g,
    j d = g ((j mod K') (d/g) mod K') (mod K): the g columns j = r (mod K')
    add up into column g (r d/g mod K').  For g = 1 that is a permutation.
    """
    rows, K = src.shape
    g = gcd(d, K)
    Kp = K // g
    cols = np.arange(Kp)
    cols *= d // g % Kp
    cols %= Kp
    cols *= g
    if g == 1:
        out[:, cols] = src
    else:
        out.fill(0.0)
        out[:, cols] = src.reshape(rows, g, Kp).sum(axis=1)


def moments(nu: AtomicMeasure, ks: list[int]) -> list[complex]:
    """The moments sum_z nu({z}) z^k for each k in ks, each summed in (den, num) order.

    The phase (k num mod den)/den is reduced in exact integers before cos/sin.
    The sums run in Python over the atom arrays read once as lists: a numpy
    pass per k costs some ten array calls, several times what the few-atom
    measures of the state evaluations take in all.
    """
    nums, dens, ws = (a.tolist() for a in nu._atoms)
    out = []
    for k in ks:
        re = im = 0.0
        for j, d, w in zip(nums, dens, ws):
            theta = 2.0 * pi * (k * j % d) / d
            re += w * cos(theta)
            im += w * sin(theta)
        out.append(complex(re, im))
    return out


def fourier(nu: AtomicMeasure, k: int) -> complex:
    """Moment sum_z nu({z}) z^k with the phase reduced exactly before cos/sin."""
    return moments(nu, [k])[0]


@dataclass(frozen=True)
class SubconformalVerdict:
    passed: bool
    witness: tuple[tuple[int, ...], RootOfUnity, float] | None
    primes_checked: tuple[int, ...]
    note: str

    def __bool__(self):
        return self.passed


def check_subconformal(
    nu: AtomicMeasure,
    beta: float,
    extra_prime_bound: int = 30,
    tol: float = 1e-9,
) -> SubconformalVerdict:
    """Bounded verifier of the positivity family A_{beta,F} nu >= 0.

    Every square-free combination F of (primes dividing the support level)
    and (primes <= extra_prime_bound coprime to it) is checked; by coprime
    multiplicativity of the operators nothing else contributes new
    inequalities inside this window.  A pass is a bounded certificate; a
    fail (with witness (F, atom, value)) is a proof of non-subconformality.

    All 2^m measures A_{beta,F} nu, m the number of primes checked, are the
    rows of one float64 array on the K-th roots, K the support level; row r
    holds F = {ps[b] : bit b of r}.  The witness is the smallest entry of
    that array: among equal values the first row, then the root j/K of
    smallest j.  Raises :class:`RangeError` before allocating when the
    2^m x K array would exceed ``ARRAY_BYTES_LIMIT`` bytes.
    """
    require("check_subconformal", "beta", beta, ge=0)
    require("check_subconformal", "tol", tol, ge=0)
    if nu.signed or nu.min_weight() < 0:
        raise ValueError("check_subconformal requires a non-negative measure")
    K = nu.support_level()
    support_ps = list(factorize(K).prime_divisors())
    window = [p for p in primes_up_to(extra_prime_bound) if K % p != 0]
    ps = sorted(support_ps + window)
    m = len(ps)
    charge(
        f"check_subconformal over m = {m} primes at level K = {K} with a 2^{m} x {K} frontier",
        8 * K << m,
    )

    # rows [n, 2n) = rows [0, n) - p^-beta * (their pushforward by p)
    frontier = np.empty((1 << m, K))
    frontier[0] = _level_vector(nu, K)
    for b, p in enumerate(ps):
        n = 1 << b
        src, dst = frontier[:n], frontier[n : 2 * n]
        _push(src, p, dst)
        dst *= -(float(p) ** -beta)
        dst += src
    r, j = divmod(int(np.argmin(frontier)), K)
    value = float(frontier[r, j])
    if value < -tol:
        F = tuple(p for b, p in enumerate(ps) if r >> b & 1)
        return SubconformalVerdict(False, (F, root(j, K), value), tuple(ps), "violation witnessed")
    return SubconformalVerdict(
        True, None, tuple(ps),
        f"bounded certificate: all square-free F from primes {ps} pass at tol {tol}",
    )


def restrict(nu: AtomicMeasure, k: int) -> AtomicMeasure:
    """Keep exactly the atoms whose order divides k."""
    if k < 1:
        raise ValueError(f"restrict requires k >= 1, got {k}")
    num, den, w = nu._atoms
    return _measure((num, den, np.where(_divides(den, k), w, 0.0)), nu.signed)


def extremal_measure(n: int, beta: float) -> AtomicMeasure:
    """nu_{beta,n}: atom n^-beta phi_beta(d)/phi(d) on each root of exact order d | n.

    A probability measure on the n-th roots; collapses to the point mass at 1
    when beta = 0.
    """
    if n < 1:
        raise ValueError(f"extremal_measure requires n >= 1, got {n}")
    require("extremal_measure", "beta", beta, ge=0)
    charge(f"extremal_measure({n}) with {n} atoms", n * ATOM_ARRAY_BYTES)
    scale = float(n) ** -beta
    # the divisors ascending, each one's roots by numerator: (den, num) order
    parts = [_primitive_roots(d, scale * totient_beta(d, beta) / totient(d)) for d in divisors(n)]
    return _measure(tuple(np.concatenate(col) for col in zip(*parts)), False)


class NotSubconformalError(ValueError):
    """Decomposition produced a negative coefficient; carries the evidence."""

    def __init__(self, coefficients: dict[int, float], witness_n: int):
        self.coefficients = coefficients
        self.witness_n = witness_n
        super().__init__(
            f"not subconformal: coefficient at n={witness_n} is {coefficients[witness_n]:.3e}"
        )


class NotOrbitInvariantError(ValueError):
    """The roots of some order carry unequal weights, so the measure is no mixture of
    extremal measures and, for 0 < beta <= 1, not subconformal; carries the worst atom."""

    def __init__(self, atom: RootOfUnity, weight: float, expected: float):
        self.atom = atom
        self.weight = weight
        self.expected = expected
        super().__init__(
            f"not subconformal: atom {atom} carries {weight:.6g}, but the roots of "
            f"order {atom.den} carry {expected:.6g} on average"
        )


def decompose(nu: AtomicMeasure, beta: float, tol: float = 1e-9) -> dict[int, float]:
    """Coefficients lambda_n of the unique expansion nu = sum_n lambda_n nu_{beta,n}.

    lambda_n = n^beta * sum_d mu(d) nu(Z_{nd}^*) / phi_beta(nd); the d-sum is
    finite because nu(Z_m^*) = 0 unless m divides the support level.  Raises
    :class:`NotOrbitInvariantError` when the atoms of some order d do not all
    carry nu(Z_d^*)/phi(d) within tol, and :class:`NotSubconformalError` when
    some coefficient drops below -tol.
    """
    require("decompose", "beta", beta, gt=0, le=1)
    require("decompose", "tol", tol, ge=0)
    if nu.signed or nu.min_weight() < 0:
        raise ValueError("decompose requires a non-negative measure")
    num, den, w = nu._atoms
    orders, group = np.unique(den, return_inverse=True)
    mass = np.bincount(group, weights=w)
    phis = np.array([totient(d) for d in orders.tolist()])
    shares = mass / phis
    # the witness is the first largest deviation in (den, num) order; an absent
    # root deviates by the whole share, so only the first absent one of an order counts
    devs = np.abs(w - shares[group])
    short = np.flatnonzero(np.bincount(group) < phis)
    dev = max(devs.max(initial=0.0), np.abs(shares[short]).max(initial=0.0))
    if dev > tol:
        found = [(int(den[i]), int(num[i])) for i in np.flatnonzero(devs == dev)[:1]]
        for o in short[np.abs(shares[short]) == dev][:1].tolist():
            d, present = int(orders[o]), set(num[group == o].tolist())
            found.append((d, next(j for j in range(d) if gcd(j, d) == 1 and j not in present)))
        d, j = min(found)
        z = RootOfUnity(j, d)
        raise NotOrbitInvariantError(z, nu.weight(z), float(shares[np.searchsorted(orders, d)]))
    # each lambda_n adds its terms over the orders e = n d ascending, as the orders come
    lams: dict[int, float] = {}
    for e, m in zip(orders.tolist(), mass.tolist()):
        if m != 0.0:
            for n in divisors(e):
                lams[n] = lams.get(n, 0.0) + mobius(e // n) * m / totient_beta(e, beta)
    out = {n: lam * float(n) ** beta for n, lam in sorted(lams.items())}
    out = {n: lam for n, lam in out.items() if abs(lam) > 1e-12}
    bad = [n for n, lam in out.items() if lam < -tol]
    if bad:
        worst = min(bad, key=lambda n: out[n])
        raise NotSubconformalError(out, worst)
    return out


def t_beta(nu: AtomicMeasure, beta: float, C: int) -> tuple[AtomicMeasure, float]:
    """Truncated low-temperature operator: zeta(beta)^-1 sum_{c<=C} c^-beta omega_c* nu.

    Returns the partial image (normalized by the full zeta(beta)) and the
    tail mass zeta(beta)^-1 sum_{c>C} c^-beta, which bounds the
    total-variation truncation error per unit of input mass.
    """
    require("t_beta", "beta", beta, gt=1)
    if C < 1:
        raise ValueError(f"truncation bound must be >= 1, got {C}")
    K = nu.support_level()
    charge(f"t_beta with C = {C} terms at level K = {K}",
           C * T_BETA_TERM_BYTES + K * T_BETA_ROOT_BYTES)
    z_full = zeta(beta)
    vals = np.arange(1, C + 1, dtype=np.float64) ** -beta
    partial = float(np.sum(vals))
    # z^c depends on c only through c mod K: w[r] collects the c = r (mod K)
    w = np.bincount(np.arange(1, C + 1) % K, weights=vals, minlength=K) / z_full
    # sum_r w[r] P_r v = sum_j v[j] P_j w: push the fuller one by the other's indices
    v, w = sorted((_level_vector(nu, K), w), key=np.count_nonzero, reverse=True)
    image, tmp = np.zeros((1, K)), np.empty((1, K))
    for r in np.flatnonzero(w).tolist():
        _push(v[None], r, tmp)
        image += np.multiply(tmp, w[r], out=tmp)
    return _from_level_vector(image[0], K, nu.signed), (z_full - partial) / z_full


def t_beta_exact_root(z: RootOfUnity, beta: float) -> AtomicMeasure:
    """Exact image of the point mass at z: the atom at z^r is w[r] / sum(w), r mod ord(z).

    w are the residue-class sums of c^-beta (:func:`affkms.arith.residue_weights`).
    """
    require("t_beta_exact_root", "beta", beta, gt=1)
    q = z.den
    charge(f"t_beta_exact_root at order {q}", q * ATOM_ARRAY_BYTES)
    weights, _ = residue_weights(q, beta)
    vec = np.empty(q)
    vec[np.arange(q) * z.num % q] = np.array(weights) / fsum(weights)
    return _from_level_vector(vec, q, False)


# --- JSON schema: {"level": K, "signed": bool, "atoms": [{"num","den","weight"}]} ---


def measure_to_dict(nu: AtomicMeasure) -> dict:
    atoms = zip(*(a.tolist() for a in nu._atoms))
    return {
        "level": nu.support_level(),
        "signed": nu.signed,
        "atoms": [{"num": j, "den": d, "weight": w} for j, d, w in atoms],
    }


def measure_from_dict(data: Mapping) -> AtomicMeasure:
    """Read the JSON schema; num, den and level must be integers, weights finite, atoms distinct."""
    atoms = {}
    for a in data["atoms"]:
        z = RootOfUnity(operator.index(a["num"]), operator.index(a["den"]))
        w = float(a["weight"])
        if not isfinite(w):
            raise ValueError(f"atom {z} has weight {w}; weights must be finite")
        if z in atoms:
            raise ValueError(f"atom {z} is listed twice")
        atoms[z] = w
    level = data.get("level")
    return AtomicMeasure(
        atoms,
        signed=bool(data.get("signed", False)),
        level=None if level is None else operator.index(level),
    )
