"""Smooth-number counting, the Dickman function, Mertens products, and the
vanishing partial sums over the smooth monoid.

Every limit statement is exercised as a monotone trend at desk scale; exact
quantities (the counter Psi, the harmonic partial sums) are computed exactly.
The counter evaluates Buchstab's recursion

    Psi(x, p_k) = Psi(x, p_{k-1}) + Psi(x // p_k, p_k)

in numpy for many x in one pass (see :func:`psi_counts`): the same recurrence
fills one table row by row for every small x, and the nodes above it go band
by band.  It keeps no memo: the table and all other state belong to one call,
and the only data shared across calls is the immutable prime table, so
concurrent callers need no lock.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import arith
from .arith import (
    PrimeSet,
    RangeError,
    first_primes,
    is_prime,
    prime_array,
    primes_up_to,
    require,
    smooth_array,
    smooth_numbers,
)

EULER_GAMMA = 0.5772156649015329

PSI_X_LIMIT = 10**12
_DELTA_CAP = 10**9  # largest exact-counter argument delta_estimate will touch

# A node Psi(x, p_k) of the recursion is the int64 key (x << 17) | k: x <= 10^12 < 2^40
# and k < pi(10^6) = 78498 < 2^17, so every key is below 2^57 and keys sort by (x, k).
_KEY_BITS = 17
_K_MASK = (1 << _KEY_BITS) - 1
# pi(v) for v <= 10^6 is a search in the prime table, so closed-form leaves stop here
_LEAF_X = 10**6
# int32 cells of the per-call table of Psi(x, p_k) for small x (8 MiB)
_TABLE_CELLS = 2**21
# int64 arrays as long as one ragged layout that are alive at once while it is built
_LIVE_ARRAYS = 6


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending (np.unique would import numpy.ma, 10 ms of a cold CLI call)."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


class _Buchstab:
    """One evaluation of Psi(x, p_k) for many x by the Buchstab recursion

        Psi(x, p_k) = bitlen(x) + sum_{1<=i<=j} Psi(x // p_i, p_i) + sum_{j<i<=k} x // p_i,

    with p_j the largest prime <= min(p_k, sqrt(x)): a prime p_i > sqrt(x) leaves
    x // p_i < p_i, and every integer below p_i is p_i-smooth.

    Almost all nodes of the recursion have a small x, so every node with
    x <= T is answered from one table of Psi(x, p_k), x <= T and k < rows,
    built for the call by the recursion in its row form

        Psi(x, p_k) = Psi(x, p_{k-1}) + Psi(x // p_k, p_k),

    one numpy step per block [p^m, p^(m+1)) of x, whose quotients x // p lie
    in the block before.  T is the largest value <= sqrt(max x) for which the
    table fits ``_TABLE_CELLS`` int32 cells and half of what the byte limit
    leaves; rows = min(k + 1, pi(T)), since for x <= T a larger k counts the
    same integers.  Such a node is never pushed, sorted or searched.

    A node above T with p_k^2 >= x and x <= 10^6 is a closed-form leaf,
    because each n <= x then has at most one prime factor above p_k:

        Psi(x, p_k) = x - sum_{q <= x // (p_k + 1)} (pi(x // q) - pi(p_k)).

    The down pass takes the pending nodes above T band by band, x in
    (top/3, top].  A child comes from a prime p_i >= 3, so it lies in a lower
    band, and all copies of a node meet in its own band, where sorting merges
    them.  The up pass walks the bands from the smallest x; the bands
    concatenated in that order form one ascending key array, in which a node
    finds the values of its children above T with np.searchsorted.  Every
    state lives in this object, which serves one call; nothing is shared
    between calls.

    Every row sum below is a partial count of one node: the recursion splits
    the integers counted by Psi(x, p_k) into disjoint classes, so each sum is
    <= Psi(x, p_k) <= x <= 10^12 and int64 arithmetic is exact; table cells
    are <= T < 2^31.
    """

    def __init__(self, k: int, what: str):
        self.primes = prime_array()
        self.squares = self.primes * self.primes
        self.k = k
        self.what = what
        self.held = 0  # int64 elements alive outside the array being built, the table included

    def _reserve(self, n: int) -> None:
        arith.charge(self.what, 8 * (self.held + n))

    def _rows(self, top: int) -> int:
        """min(k + 1, pi(top)) rows, and at least the row of p_0 = 2, which also serves x <= 1."""
        return max(1, min(self.k + 1, int(np.searchsorted(self.primes, top, side="right"))))

    def _table_top(self, xmax: int, cells: int) -> int:
        """The largest T <= sqrt(xmax) whose table fits the cells (0 when none does)."""
        top, hi = 0, math.isqrt(xmax)
        while top < hi:
            mid = (top + hi + 1) // 2
            if self._rows(mid) * (mid + 1) <= cells:
                top = mid
            else:
                hi = mid - 1
        return top

    def _table(self, top: int) -> np.ndarray:
        """Psi(x, p_k) for x <= top and k < rows, row k from row k - 1."""
        table = np.empty((self._rows(top), top + 1), dtype=np.int32)
        table[0] = 1  # Psi(x, 1) for x >= 1
        table[0, 0] = 0
        for k, row in enumerate(table):
            if k:
                row[:] = table[k - 1]
            p = int(self.primes[k])
            start = p
            while start <= top:
                stop = min(start * p, top + 1)
                # x // p for x in [start, stop) runs over start // p .. (stop - 1) // p, p times each
                row[start:stop] += np.repeat(row[start // p : (stop - 1) // p + 1], p)[: stop - start]
                start = stop
        return table

    def _expand(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, rank) of each entry of a ragged layout with the given row lengths."""
        total = int(counts.sum())
        self._reserve(_LIVE_ARRAYS * total)
        ends = np.cumsum(counts)
        row = np.repeat(np.arange(counts.size), counts)
        return row, np.arange(total) - (ends - counts)[row]

    @staticmethod
    def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
        out = np.zeros(counts.size, dtype=np.int64)
        full = counts > 0
        if values.size:
            out[full] = np.add.reduceat(values, (np.cumsum(counts) - counts)[full])
        return out

    def _children(self, x: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The children (x // p_i, i), i = 1..counts, of each node, row by row."""
        row, rank = self._expand(counts)
        i = rank + 1
        return x[row] // self.primes[i], i

    def _values(self, x: np.ndarray, k: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Psi(x, p_k) from the table for x <= T, and from the computed nodes above."""
        out = np.empty_like(x)
        small = x <= self.top
        out[small] = self.table[np.minimum(k[small], len(self.table) - 1), x[small]]
        big = ~small
        out[big] = values[np.searchsorted(keys, (x[big] << _KEY_BITS) | k[big])]
        return out

    def _leaf_counts(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        qs = x // (self.primes[k] + 1)
        row, rank = self._expand(qs)
        pis = np.searchsorted(self.primes, x[row] // (rank + 1), side="right")
        return x - (self._row_sums(pis, qs) - qs * (k + 1))

    def _tail_sums(self, x: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        counts = k - j
        row, rank = self._expand(counts)
        return self._row_sums(x[row] // self.primes[j[row] + 1 + rank], counts)

    def run(self, xs: np.ndarray) -> np.ndarray:
        kept = self.squares.size  # and the table, and the recorded bands: keys, partial counts, child counts
        budget = min(_TABLE_CELLS, arith.ARRAY_BYTES_LIMIT // 8 - kept)
        self.top = self._table_top(int(xs.max()), budget)
        self.table = self._table(self.top)
        kept += self.table.nbytes // 8
        pis = np.searchsorted(self.primes, xs, side="right")
        ks = np.maximum(np.minimum(self.k, pis - 1), 0)
        big = xs > self.top
        pending = _distinct((xs[big] << _KEY_BITS) | ks[big])
        bands = []
        nodes = 0
        while pending.size:
            self.held = kept + pending.size
            self._reserve(2 * pending.size)
            tops = pending >> _KEY_BITS
            in_band = tops > tops.max() // 3
            band = _distinct(pending[in_band])
            pending = pending[~in_band]
            nodes += band.size
            kept += 3 * band.size
            self.held = kept + pending.size
            x, k = band >> _KEY_BITS, band & _K_MASK
            j = np.maximum(np.minimum(k, np.searchsorted(self.squares, x, side="right") - 1), 0)
            leaf = (x <= _LEAF_X) & (self.squares[k] >= x)
            inner = ~leaf
            partial = np.empty_like(x)
            partial[leaf] = self._leaf_counts(x[leaf], k[leaf])
            xi = x[inner]
            partial[inner] = np.frexp(xi.astype(np.float64))[1] + self._tail_sums(xi, j[inner], k[inner])
            counts = np.where(leaf, 0, j)
            bands.append((band, partial, counts))
            cx, ci = self._children(x, counts)
            above = cx > self.top
            children = (cx[above] << _KEY_BITS) | ci[above]
            self._reserve(pending.size + children.size)
            pending = np.concatenate([pending, children])

        bands.reverse()
        self.held = kept + 2 * nodes  # the bands, and their keys and values in one array each
        # pending is empty now; it keeps the concatenation defined when every root is in the table
        keys = np.concatenate([pending] + [band for band, _, _ in bands])
        values = np.empty_like(keys)
        start = 0
        for band, partial, counts in bands:
            # children above T sit in lower bands, whose values are already final
            cx, ci = self._children(band >> _KEY_BITS, counts)
            values[start : start + band.size] = partial + self._row_sums(self._values(cx, ci, keys, values), counts)
            start += band.size
        return self._values(xs, ks, keys, values)


def psi_counts(xs: Iterable[int], y: int) -> np.ndarray:
    """Exact numbers of y-smooth integers in [1, x] for every x of xs, as int64 in input order.

    One pass of the Buchstab recursion serves all of xs, with one table for
    its nodes at small x (see :class:`_Buchstab`).  Raises
    :class:`RangeError` before allocating when its working set, the table
    included, would exceed ``ARRAY_BYTES_LIMIT`` bytes.
    """
    xs = [operator.index(x) for x in xs]
    y = operator.index(y)
    for x in xs:
        if x < 1:
            raise ValueError(f"psi_count requires x >= 1, got {x}")
        if x > PSI_X_LIMIT:
            raise RangeError(f"psi_count supports x <= {PSI_X_LIMIT}, got {x}")
    if y < 2:
        raise ValueError(f"psi_count requires y >= 2, got {y}")
    k = len(primes_up_to(y)) - 1
    if not xs:
        return np.zeros(0, dtype=np.int64)
    return _Buchstab(k, f"psi_count at x = {max(xs)}, y = {y}").run(np.array(xs, dtype=np.int64))


def psi_count(x: int, y: int) -> int:
    """Exact number of y-smooth integers in [1, x]."""
    return int(psi_counts([x], y)[0])


def psi_count_table(xmax: int, y: int) -> np.ndarray:
    """Psi(x, y) for every x in 0..xmax at once, by a sieve.

    Every prime power p^e <= xmax with p <= y is divided out of 0..xmax; the
    y-smooth n are those left at 1.  Raises :class:`RangeError` when the
    table and its mask would exceed ``ARRAY_BYTES_LIMIT`` bytes.
    """
    xmax = operator.index(xmax)
    if xmax < 1:
        raise ValueError(f"psi_count_table requires xmax >= 1, got {xmax}")
    y = operator.index(y)
    if y < 2:
        raise ValueError(f"psi_count_table requires y >= 2, got {y}")
    ps = primes_up_to(y)
    arith.charge(f"psi_count_table up to xmax = {xmax}", 9 * (xmax + 1))  # int64 table, bool mask
    rem = np.arange(xmax + 1, dtype=np.int64)
    for p in ps:
        if p > xmax:
            break
        pe = p
        while pe <= xmax:
            rem[::pe] //= p
            pe *= p
    return np.cumsum(rem == 1, out=rem)


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


# every finite double is an integer multiple of 2^-1074, so a sum of them held
# as an integer multiple of 2^-1100 is exact
_WINDOW_BITS = 1100
_WINDOW_SCALE = 1 << _WINDOW_BITS
# the grid reaches rho(50)
_U_MAX = 50.0


def _scaled(v: float) -> int:
    """v as an exact integer multiple of 2^-1100."""
    num, den = v.as_integer_ratio()
    return num << (_WINDOW_BITS + 1 - den.bit_length())


@lru_cache(maxsize=32)
def _raw_grid(n_steps: int, h: float) -> tuple[float, ...]:
    # u * rho(u) = integral_{u-1}^{u} rho, advanced by trapezoid steps.  The
    # sum of rho over the M - 1 interior points of the window is one exact
    # integer; one int/int true division rounds it correctly, as fsum would.
    M = round(1.0 / h)
    if abs(M * h - 1.0) > 1e-12:
        raise ValueError(f"step {h} must divide 1 exactly")
    rho = [1.0] * (M + 1)
    scaled = [_WINDOW_SCALE] * (M + 1)
    window = (M - 1) * _WINDOW_SCALE  # rho over [i - M + 1, i - 1]
    for i in range(M + 1, n_steps + 1):
        u = i * h
        v = h * (0.5 * rho[i - M] + window / _WINDOW_SCALE) / (u - 0.5 * h)
        rho.append(v)
        scaled.append(_scaled(v))
        window += scaled[i] - scaled[i - M + 1]
    return tuple(rho)


def _check_args(name: str, arg: str, u: float, h: float, top: float) -> None:
    """Refuse an argument u outside [0, top] and a step h outside (0, 0.01]."""
    require(name, arg, u, ge=0)
    if not h > 0:
        raise ValueError(f"{name} requires a step h > 0, got {h}")
    if h > 0.01:
        raise ValueError(f"step must be <= 0.01, got {h}")
    if u > top:
        raise ValueError(f"{arg} must be <= {top:g} at step h = {h}, got {u}")


def _grid(u_max: float, h: float) -> DickmanGrid:
    n = int(math.ceil(u_max / h - 1e-9))
    coarse = np.array(_raw_grid(n, h)[: n + 1])
    fine = np.array(_raw_grid(2 * n, h / 2)[: 2 * n + 1 : 2])
    return DickmanGrid(h, (4.0 * fine - coarse) / 3.0)


def dickman_grid(u_max: float, h: float = 0.005) -> DickmanGrid:
    """Richardson-extrapolated grid (steps h and h/2) of the Dickman function on [0, u_max]."""
    _check_args("dickman_grid", "u_max", u_max, h, _U_MAX)
    return _grid(u_max, h)


def dickman(u: float, h: float = 0.005) -> float:
    """rho(u) to ~1e-7 for u <= 10 (exact 1 on [0,1])."""
    _check_args("dickman", "u", u, h, _U_MAX - 2 * h)
    if u <= 1.0:
        return 1.0
    g = _grid(u + 2 * h, h)
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
    _check_args("dickman_mass", "u_max", u_max, h, _U_MAX)
    v = _grid(u_max, h).values
    n = len(v) - 1
    e = n - n % 2  # composite Simpson on the even prefix, plus one trapezoid panel if n is odd
    simpson = (v[0] + v[e] + 4 * np.sum(v[1:e:2]) + 2 * np.sum(v[2:e:2])) * h / 3 if e else 0.0
    if n % 2 == 1:
        return float(simpson + 0.5 * h * (v[n - 1] + v[n]))
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

    def __init__(self, fn: Callable[[int], float]):
        self._fn = fn

    def value(self, m: int) -> float:
        v = self._fn(m)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"sequence value {v} at {m} leaves [0, 1]")
        return v

    @classmethod
    def const_one(cls) -> "SequenceSpec":
        return cls(lambda m: 1.0)

    @classmethod
    def const_zero(cls) -> "SequenceSpec":
        return cls(lambda m: 0.0)

    @classmethod
    def prime_indicator(cls) -> "SequenceSpec":
        return cls(lambda m: 1.0 if is_prime(m) else 0.0)

    @classmethod
    def square_indicator(cls) -> "SequenceSpec":
        return cls(lambda m: 1.0 if math.isqrt(m) ** 2 == m else 0.0)

    @classmethod
    def custom(cls, values: Sequence[float]) -> "SequenceSpec":
        vals = list(values)

        def fn(m: int) -> float:
            return vals[m - 1] if 1 <= m <= len(vals) else 0.0

        return cls(fn)


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
    smooth = smooth_array(F, C)
    total = math.fsum(a.value(m) / m for m in smooth.tolist())
    # fsum is correctly rounded, so the order of the terms cannot change it
    harmonic_partial = math.fsum((1.0 / smooth).tolist())
    full_harmonic = 1.0 / prefactor
    share = prefactor * (full_harmonic - harmonic_partial)
    return SmoothSum(prefactor * total, share)


def density_sum(J: SequenceSpec, n_primes: int, C: int) -> list[tuple[int, float]]:
    """Trend rows (n, scaled smooth sum of the indicator) for n = 3 .. n_primes (none below 3)."""
    first_primes(n_primes)  # refuses a negative count, which the range below would skip
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
    if C < 1:
        raise ValueError(f"bound must be >= 1, got {C}")
    ps = first_primes(n_primes)
    prefactor = math.prod(1.0 - 1.0 / p for p in ps)
    allowed = PrimeSet.of([p for p in ps if p not in B])
    if callable(nu_hat):
        terms = ((m, complex(nu_hat(ell * m + k))) for m in smooth_numbers(allowed, C))
    else:
        # the nonzero terms are at the keys j = ell * m + k with m <= C allowed-smooth
        terms = sorted(
            ((j - k) // ell, complex(c)) for j, c in nu_hat.items()
            if (j - k) % ell == 0 and _is_smooth((j - k) // ell, allowed, C)
        )
    acc = 0j
    for m, c in terms:
        if c != 0j:
            if abs(c) > 1.0 + 1e-12:
                raise ValueError(f"|nu_hat({ell * m + k})| = {abs(c)} exceeds 1")
            acc += c / m
    return prefactor * acc


def _is_smooth(m: int, F: PrimeSet, C: int) -> bool:
    """Whether 1 <= m <= C and every prime factor of m lies in F."""
    if not 1 <= m <= C:
        return False
    for p in F:
        while m % p == 0:
            m //= p
    return m == 1


class DeltaEstimate(NamedTuple):
    value: float
    s_max: float
    truncated: bool


def delta_estimate(u: float, x: int, n_points: int = 64) -> DeltaEstimate:
    """Trapezoid estimate of the smooth-ratio integral int_u^inf Psi(x^s, x)/x^s ds.

    s_max is pushed until the integrand drops below 1e-6 or x^s would leave
    the exact counter's desk range (then the result is flagged truncated).
    Raises :class:`RangeError` when x^u itself exceeds ``PSI_X_LIMIT``.
    """
    require("delta_estimate", "u", u, ge=1)
    if x > 1000 or x < 3:
        raise ValueError(f"delta_estimate requires 3 <= x <= 1000, got {x}")
    # x^u overflows a double only far above the limit, where the log test refuses first
    if u * math.log(x) > math.log(PSI_X_LIMIT) + 1 or int(x**u) > PSI_X_LIMIT:
        raise RangeError(
            f"delta_estimate at u = {u}, x = {x} counts at x^u = 10^{u * math.log10(x):.4g}, "
            f"beyond the counter's x <= {PSI_X_LIMIT}"
        )
    log_cap = math.log(_DELTA_CAP) / math.log(x)
    probes = []
    s = u
    while s + 0.25 <= log_cap:
        s += 0.25
        probes.append(s)
    # one pass counts the probes and the grid that ends at the last probe; a
    # second is needed only when the integrand drops below 1e-6 before it
    last = probes[-1] if probes else u
    grid = np.linspace(u, last, n_points)
    counts = psi_counts([int(x**s) for s in probes] + [int(x**s) for s in grid], x).tolist()
    s_max = u
    truncated = True
    for s, count in zip(probes, counts):
        s_max = s
        if count / x**s < 1e-6:
            truncated = False
            break
    counts = counts[len(probes) :]
    if s_max != last:
        grid = np.linspace(u, s_max, n_points)
        counts = psi_counts([int(x**s) for s in grid], x).tolist()
    vals = [c / x**s for c, s in zip(counts, grid)]
    integral = sum(
        0.5 * (grid[i + 1] - grid[i]) * (vals[i] + vals[i + 1])
        for i in range(len(grid) - 1)
    )
    return DeltaEstimate(float(integral), s_max, truncated)
