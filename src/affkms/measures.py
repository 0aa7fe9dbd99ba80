"""Atomic measures on roots of unity and the subconformality machinery.

A measure is a finite weighted set of reduced rational points p/q of the
circle.  Phases stay exact fractions until the final trigonometric call in
:func:`fourier`.  The central objects:

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

import json
import operator
from dataclasses import dataclass
from math import cos, fsum, gcd, isfinite, lcm, pi, sin
from typing import Iterable, Mapping

import numpy as np

from .arith import (
    PrimeSet,
    charge,
    divisors,
    factorize,
    mobius,
    primes_up_to,
    residue_weights,
    totient,
    totient_beta,
    zeta,
)

# bytes one atom of an AtomicMeasure costs while it is built: its RootOfUnity
# key, its float and its slots in two dicts (input and copy).  tracemalloc's
# peak per atom was 255-288 B for extremal_measure(n) and 207-276 B for
# epsilon(n) at n from 5*10^4 to 4.5*10^5, where the guards below bite.
ATOM_BYTES = 288

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
    """Finite weighted atoms on roots of unity; weights may be signed in intermediates."""

    __slots__ = ("_atoms", "signed", "_level")

    def __init__(
        self,
        atoms: Mapping[RootOfUnity, float] | Iterable[tuple[RootOfUnity, float]] = (),
        *,
        signed: bool = False,
        level: int | None = None,
    ):
        acc: dict[RootOfUnity, float] = {}
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        for z, w in items:
            if w == 0.0:
                continue
            acc[z] = acc.get(z, 0.0) + w
        object.__setattr__(self, "_atoms", acc)
        object.__setattr__(self, "signed", signed)
        if level is not None:
            if level < 1:
                raise ValueError(f"level must be >= 1, got {level}")
            bad = [z for z in acc if level % z.den != 0]
            if bad:
                raise ValueError(f"atoms {bad} do not live on the level-{level} roots")
        object.__setattr__(self, "_level", level)

    def __setattr__(self, *a):  # measures are values
        raise AttributeError("AtomicMeasure is immutable")

    def atoms(self) -> dict[RootOfUnity, float]:
        return dict(self._atoms)

    def weight(self, z: RootOfUnity) -> float:
        return self._atoms.get(z, 0.0)

    def mass(self) -> float:
        return sum(self._atoms.values())

    def min_weight(self) -> float:
        return min(self._atoms.values(), default=0.0)

    def support_level(self) -> int:
        """lcm of atom orders (declared level if one was given)."""
        if self._level is not None:
            return self._level
        out = 1
        for z in self._atoms:
            out = lcm(out, z.den)
        return out

    def is_probability(self, tol: float = 1e-10) -> bool:
        return abs(self.mass() - 1.0) <= tol and self.min_weight() >= -tol

    def scaled(self, c: float) -> "AtomicMeasure":
        return AtomicMeasure(
            {z: c * w for z, w in self._atoms.items()},
            signed=self.signed or c < 0,
            level=self._level,
        )

    def plus(self, other: "AtomicMeasure") -> "AtomicMeasure":
        acc = self.atoms()
        for z, w in other._atoms.items():
            acc[z] = acc.get(z, 0.0) + w
        return AtomicMeasure(acc, signed=self.signed or other.signed)

    def __len__(self):
        return len(self._atoms)

    def __repr__(self):
        inner = " + ".join(f"{w:.6g}*d({z})" for z, w in sorted(self._atoms.items()))
        return f"AtomicMeasure({inner or '0'})"


def dirac(z: RootOfUnity) -> AtomicMeasure:
    return AtomicMeasure({z: 1.0})


def tv_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Total-variation norm of mu - nu (sum of absolute atom differences)."""
    keys = set(mu.atoms()) | set(nu.atoms())
    return sum(abs(mu.weight(z) - nu.weight(z)) for z in keys)


def max_atom_diff(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    keys = set(mu.atoms()) | set(nu.atoms())
    return max((abs(mu.weight(z) - nu.weight(z)) for z in keys), default=0.0)


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
    charge(f"epsilon({n}) with {phi} atoms", phi * ATOM_BYTES)
    w = 1.0 / phi
    return AtomicMeasure({RootOfUnity(j, n): w for j in range(n) if gcd(j, n) == 1})


def apply_A(nu: AtomicMeasure, n: int, beta: float) -> AtomicMeasure:
    """A_{beta,n} nu = sum_{d|n} mu(d) d^-beta omega_d* nu (signed), on the K-th roots."""
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

    A_{beta,n} mu, applied by the same pushes, must equal nu within 1e-9 in
    every atom, or :class:`RuntimeError`.  Raises :class:`RangeError` before
    allocating when the K output atoms and the working vectors would exceed
    ``ARRAY_BYTES_LIMIT`` bytes, and ``ValueError`` when some p^-beta rounds
    to 1, where the series does not converge in float64.
    """
    if beta <= 0:
        raise ValueError(f"apply_A_inv requires beta > 0, got {beta}")
    K = level if level is not None else nu.support_level()
    # besides the atoms: four float64 vectors and the K Python floats the atoms
    # are read from, 32 B per root each (tracemalloc's peak: 64 B per root)
    charge(f"apply_A_inv at level K = {K}", K * (ATOM_BYTES + 64))
    factors = [(p, float(p) ** -beta) for p in PrimeSet.dividing(n)]
    rhs = _level_vector(nu, K)[None]
    mu, tmp = rhs.copy(), np.empty_like(rhs)
    for p, c in factors:
        if c == 1.0:
            raise ValueError(f"apply_A_inv: {p}^-beta rounds to 1 at beta = {beta}")
        stop, d = 2.0**-60 * (1.0 - c), p
        while c > stop:
            _push(mu, d, tmp)
            tmp *= c
            mu += tmp
            c, d = c * c, d * d % K
    res = mu.copy()
    _apply_A_rows(res, n, beta, tmp)
    res -= rhs
    residual = float(np.max(np.abs(res)))
    if residual > 1e-9:
        raise RuntimeError(f"A_inv solve residual {residual:.2e} exceeds 1e-9")
    return _from_level_vector(mu[0], K, nu.signed)


def _apply_A_rows(rows: np.ndarray, n: int, beta: float, tmp: np.ndarray) -> None:
    """rows <- A_{beta,n} rows = prod_{p|n} (I - p^-beta P_p) rows in place; tmp is scratch."""
    for p in PrimeSet.dividing(n):
        _push(rows, p, tmp)
        rows -= np.multiply(tmp, float(p) ** -beta, out=tmp)


def _level_vector(nu: AtomicMeasure, K: int) -> np.ndarray:
    """The weights of nu as a length-K vector, entry j on the root j/K."""
    vec = np.zeros(K)
    for z, w in nu.atoms().items():
        if K % z.den != 0:
            raise ValueError(f"atom {z} is not supported on the level-{K} roots")
        vec[z.num * (K // z.den)] = w
    return vec


def _from_level_vector(vec: np.ndarray, K: int, signed: bool) -> AtomicMeasure:
    """The measure with weight vec[j] on the root j/K; its atoms are charged first."""
    js = np.flatnonzero(vec)
    charge(f"a measure of {len(js)} atoms", len(js) * ATOM_BYTES)
    atoms = zip(js.tolist(), vec[js].tolist())
    return AtomicMeasure({root(j, K): w for j, w in atoms}, signed=signed)


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


def fourier(nu: AtomicMeasure, k: int) -> complex:
    """Moment sum_z nu({z}) z^k with the phase reduced exactly before cos/sin."""
    re = im = 0.0
    for z, w in nu.atoms().items():
        phase = (k * z.num) % z.den
        theta = 2.0 * pi * phase / z.den
        re += w * cos(theta)
        im += w * sin(theta)
    return complex(re, im)


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
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
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
    return AtomicMeasure(
        {z: w for z, w in nu.atoms().items() if k % z.den == 0},
        signed=nu.signed,
    )


def extremal_measure(n: int, beta: float) -> AtomicMeasure:
    """nu_{beta,n}: atom n^-beta phi_beta(d)/phi(d) on each root of exact order d | n.

    A probability measure on the n-th roots; collapses to the point mass at 1
    when beta = 0.
    """
    if n < 1:
        raise ValueError(f"extremal_measure requires n >= 1, got {n}")
    charge(f"extremal_measure({n}) with {n} atoms", n * ATOM_BYTES)
    scale = float(n) ** -beta
    acc: dict[RootOfUnity, float] = {}
    for d in divisors(n):
        w = scale * totient_beta(d, beta) / totient(d)
        if w == 0.0:
            continue
        for j in range(d):
            if gcd(j, d) == 1:
                acc[RootOfUnity(j, d)] = w
    return AtomicMeasure(acc)


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
    if not 0 < beta <= 1:
        raise ValueError(f"decompose requires 0 < beta <= 1, got {beta}")
    if nu.signed or nu.min_weight() < 0:
        raise ValueError("decompose requires a non-negative measure")
    L = nu.support_level()
    primitive_mass: dict[int, float] = {}
    by_order: dict[int, list[RootOfUnity]] = {}
    for z, w in nu.atoms().items():
        primitive_mass[z.den] = primitive_mass.get(z.den, 0.0) + w
        by_order.setdefault(z.den, []).append(z)
    shares = {d: m / totient(d) for d, m in primitive_mass.items()}
    # orders in order of first appearance, roots by numerator; an absent root
    # deviates by the whole share, so only the first absent one can be the witness
    deviations = []
    for d, zs in by_order.items():
        devs = [(z.num, abs(nu.weight(z) - shares[d])) for z in zs]
        if len(zs) < totient(d):
            nums = {z.num for z in zs}
            absent = next(j for j in range(d) if gcd(j, d) == 1 and j not in nums)
            devs.append((absent, abs(shares[d])))
        deviations += [(dev, RootOfUnity(j, d)) for j, dev in sorted(devs)]
    dev, z = max(deviations, key=lambda t: t[0], default=(0.0, ONE))
    if dev > tol:
        raise NotOrbitInvariantError(z, nu.weight(z), shares[z.den])
    out: dict[int, float] = {}
    for n in divisors(L):
        lam = 0.0
        for d in divisors(L // n):
            m = primitive_mass.get(n * d, 0.0)
            if m != 0.0:
                lam += mobius(d) * m / totient_beta(n * d, beta)
        lam *= float(n) ** beta
        if abs(lam) > 1e-12:
            out[n] = lam
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
    if beta <= 1:
        raise ValueError(f"t_beta requires beta > 1, got {beta}")
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
    if beta <= 1:
        raise ValueError(f"t_beta_exact_root requires beta > 1, got {beta}")
    charge(f"t_beta_exact_root at order {z.den}", z.den * ATOM_BYTES)
    weights, _ = residue_weights(z.den, beta)
    total = fsum(weights)
    return AtomicMeasure({z.pow(r): w / total for r, w in enumerate(weights)})


# --- JSON schema: {"level": K, "signed": bool, "atoms": [{"num","den","weight"}]} ---


def measure_to_dict(nu: AtomicMeasure) -> dict:
    atoms = sorted(nu.atoms().items(), key=lambda kv: (kv[0].den, kv[0].num))
    return {
        "level": nu.support_level(),
        "signed": nu.signed,
        "atoms": [{"num": z.num, "den": z.den, "weight": w} for z, w in atoms],
    }


def measure_from_dict(data: Mapping) -> AtomicMeasure:
    """Read the JSON schema; num, den and level must be integers, weights finite."""
    atoms = {}
    for a in data["atoms"]:
        z = RootOfUnity(operator.index(a["num"]), operator.index(a["den"]))
        w = float(a["weight"])
        if not isfinite(w):
            raise ValueError(f"atom {z} has weight {w}; weights must be finite")
        atoms[z] = w
    level = data.get("level")
    return AtomicMeasure(
        atoms,
        signed=bool(data.get("signed", False)),
        level=None if level is None else operator.index(level),
    )


def measure_to_json(nu: AtomicMeasure) -> str:
    return json.dumps(measure_to_dict(nu), sort_keys=True)


def measure_from_json(text: str) -> AtomicMeasure:
    return measure_from_dict(json.loads(text))
