import math
import random
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkms import asymptotics
from affkms.arith import PrimeSet, RangeError, first_primes, primes_up_to, smooth_numbers
from affkms.asymptotics import (
    EULER_GAMMA,
    DeltaEstimate,
    SequenceSpec,
    delta_estimate,
    density_sum,
    dickman,
    dickman_grid,
    dickman_mass,
    mertens_product,
    psi_count,
    psi_count_table,
    psi_counts,
    smooth_harmonic_sum,
    wiener_sum,
)


def brute_smooth_counts(xmax, y):
    """Independent oracle: largest-prime-factor sieve, then cumulative counts."""
    lpf = np.zeros(xmax + 1, dtype=np.int64)
    for p in range(2, xmax + 1):
        if lpf[p] == 0:
            lpf[p::p] = p
    smooth = np.ones(xmax + 1, dtype=np.int64)
    smooth[0] = 0
    smooth[2:] = (lpf[2:] <= y).astype(np.int64)
    return np.cumsum(smooth)


# The memoised scalar recursion that psi_counts replaced, kept verbatim as an
# oracle for x <= 10^7 (its memo belongs to this test module).
_psi_primes: list[int] = []
_psi_memo: dict[int, int] = {}


def _ensure_primes(y: int) -> int:
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


def recursion_oracle(x: int, y: int) -> int:
    return _psi(x, _ensure_primes(y))


def lucy_oracle(x: int, y: int) -> int:
    """Psi(x, y) for sqrt(x) <= y <= x, from Lucy_Hedgehog's table of pi(x // d).

    Each n <= x has at most one prime factor p > y, so
    Psi(x, y) = x - sum_{y < p <= x} x // p = x - sum_{q <= x // (y+1)} (pi(x // q) - pi(y)).
    """
    assert y * y >= x
    r = math.isqrt(x)
    vs = [x // d for d in range(1, r + 1)]
    vs += list(range(vs[-1] - 1, 0, -1))
    pi = {v: v - 1 for v in vs}
    for p in range(2, r + 1):
        if pi[p] > pi[p - 1]:
            below, p2 = pi[p - 1], p * p
            for v in vs:
                if v < p2:
                    break
                pi[v] -= pi[v // p] - below
    pi_y = len(primes_up_to(y))
    return x - sum(pi[x // q] - pi_y for q in range(1, x // (y + 1) + 1))


# The per-number loops that the vectorised code replaced, kept verbatim as
# oracles: results must agree bit for bit.


def recursive_smooth_numbers(F: PrimeSet, bound: int) -> list[int]:
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    ps = F.primes
    out: list[int] = []

    def rec(val: int, i: int) -> None:
        out.append(val)
        for j in range(i, len(ps)):
            nxt = val * ps[j]
            if nxt > bound:
                if ps[j] > bound // max(val, 1):
                    break
                continue
            rec(nxt, j)

    rec(1, 0)
    out.sort()
    return out


def fsum_raw_grid(n_steps: int, h: float) -> tuple[float, ...]:
    M = round(1.0 / h)
    if abs(M * h - 1.0) > 1e-12:
        raise ValueError(f"step {h} must divide 1 exactly")
    rho = [1.0] * (M + 1)
    for i in range(M + 1, n_steps + 1):
        u = i * h
        window = 0.5 * rho[i - M] + math.fsum(rho[i - M + 1 : i])
        rho.append(h * window / (u - 0.5 * h))
    return tuple(rho)


def fsum_dickman_grid(u_max: float, h: float) -> np.ndarray:
    n = int(math.ceil(u_max / h - 1e-9))
    coarse = fsum_raw_grid(n, h)
    fine = fsum_raw_grid(2 * n, h / 2)
    return np.array([(4.0 * fine[2 * i] - coarse[i]) / 3.0 for i in range(n + 1)])


def fsum_dickman_mass(u_max: float, h: float) -> float:
    v = fsum_dickman_grid(u_max, h)
    n = len(v) - 1
    if n % 2 == 1:
        simpson = (v[0] + v[n - 1] + 4 * np.sum(v[1 : n - 1 : 2]) + 2 * np.sum(v[2 : n - 1 : 2])) * h / 3
        return float(simpson + 0.5 * h * (v[n - 1] + v[n]))
    simpson = (v[0] + v[n] + 4 * np.sum(v[1:n:2]) + 2 * np.sum(v[2:n:2])) * h / 3
    return float(simpson)


def fsum_dickman(u: float, h: float) -> float:
    if u <= 1.0:
        return 1.0
    values = fsum_dickman_grid(u + 2 * h, h)
    i = int(u / h)
    if abs(i * h - u) < 1e-12:
        return float(values[i])
    i0 = min(max(i - 1, 0), len(values) - 4)
    xs = np.array([(i0 + j) * h for j in range(4)])
    ys = values[i0 : i0 + 4]
    out = 0.0
    for j in range(4):
        lj = 1.0
        for t in range(4):
            if t != j:
                lj *= (u - xs[t]) / (xs[j] - xs[t])
        out += ys[j] * lj
    return float(out)


def listed_smooth_harmonic_sum(n_primes: int, a: SequenceSpec, C: int):
    ps = first_primes(n_primes)
    F = PrimeSet.of(ps)
    prefactor = math.prod(1.0 - 1.0 / p for p in ps)
    smooth = recursive_smooth_numbers(F, C)
    total = math.fsum(a.value(m) / m for m in smooth)
    harmonic_partial = math.fsum(1.0 / m for m in smooth)
    full_harmonic = 1.0 / prefactor
    share = prefactor * (full_harmonic - harmonic_partial)
    return prefactor * total, share


def enumerating_wiener_sum(nu_hat, n_primes, B, ell, k, C) -> complex:
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
    for m in recursive_smooth_numbers(allowed, C):
        c = complex(lookup(ell * m + k))
        if c != 0j:
            if abs(c) > 1.0 + 1e-12:
                raise ValueError(f"|nu_hat({ell * m + k})| = {abs(c)} exceeds 1")
            acc += c / m
    return prefactor * acc


def two_call_delta_estimate(u: float, x: int, n_points: int = 64) -> DeltaEstimate:
    log_cap = math.log(10**9) / math.log(x)
    probes = []
    s = u
    while s + 0.25 <= log_cap:
        s += 0.25
        probes.append(s)
    s_max = u
    truncated = True
    for s, count in zip(probes, psi_counts([int(x**s) for s in probes], x).tolist()):
        s_max = s
        if count / x**s < 1e-6:
            truncated = False
            break
    grid = np.linspace(u, s_max, n_points)
    counts = psi_counts([int(x**s) for s in grid], x).tolist()
    vals = [c / x**s for c, s in zip(counts, grid)]
    integral = sum(
        0.5 * (grid[i + 1] - grid[i]) * (vals[i] + vals[i + 1])
        for i in range(len(grid) - 1)
    )
    return DeltaEstimate(float(integral), s_max, truncated)


_SMALL_PRIMES = primes_up_to(3162)  # p^2 <= 10^7


class TestPsiAgainstRecursion:
    @given(st.sampled_from(_SMALL_PRIMES), st.integers(-3, 3), st.integers(-1, 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_at_the_square_cutoff(self, p, delta, shift, same_prime):
        # x = p^2 + delta straddles the leaf condition p_k^2 >= x
        x = max(p * p + delta, 1)
        y = max(p + shift if same_prime else math.isqrt(x) + shift, 2)
        assert psi_count(x, y) == recursion_oracle(x, y)

    @given(st.integers(1, 10**7), st.sampled_from(primes_up_to(20_000)), st.integers(-1, 1))
    @settings(max_examples=150, deadline=None)
    def test_y_within_one_of_a_prime(self, x, q, shift):
        y = max(q + shift, 2)
        assert psi_count(x, y) == recursion_oracle(x, y)

    def test_batches_unsorted_with_duplicates(self):
        rng = random.Random(17)
        for _ in range(20):
            y = rng.randint(2, 1000)
            xs = [rng.randint(1, 2 * 10**6) for _ in range(rng.randint(1, 20))]
            xs += xs[: rng.randint(0, len(xs))] + [1]
            rng.shuffle(xs)
            got = psi_counts(xs, y)
            assert got.dtype == np.int64
            assert got.tolist() == [psi_count(x, y) for x in xs] == [recursion_oracle(x, y) for x in xs]

    def test_empty_batch(self):
        assert psi_counts([], 97).tolist() == []

    @pytest.mark.parametrize("x, y", [(10**6, 1000), (4 * 10**7 + 7, 16001), (6 * 10**7, 17880), (99_991, 317)])
    def test_large_y_against_lucy(self, x, y):
        assert psi_count(x, y) == lucy_oracle(x, y)

    def test_seven_smooth_at_the_top_of_the_range(self):
        assert psi_count(10**12, 7) == len(smooth_numbers(PrimeSet.of([2, 3, 5, 7]), 10**12))

    def test_delta_estimate_matches_scalar_probe_loop(self):
        # the probe and grid loops of the scalar implementation, on the oracle
        for u, x in ((1.3, 11), (1.0, 3), (2.0, 20)):
            log_cap = math.log(10**9) / math.log(x)
            s_max, truncated = u, True
            while s_max + 0.25 <= log_cap:
                s_max += 0.25
                if recursion_oracle(int(x**s_max), x) / x**s_max < 1e-6:
                    truncated = False
                    break
            grid = np.linspace(u, s_max, 64)
            vals = [recursion_oracle(int(x**s), x) / x**s for s in grid]
            integral = sum(0.5 * (grid[i + 1] - grid[i]) * (vals[i] + vals[i + 1]) for i in range(63))
            assert delta_estimate(u, x) == DeltaEstimate(float(integral), s_max, truncated)


def table_shape(xmax: int, y: int, cells: int = asymptotics._TABLE_CELLS) -> tuple[int, int]:
    """(T, rows) of the table of Psi(x, p_k) that a call with largest x = xmax builds."""
    engine = asymptotics._Buchstab(len(primes_up_to(y)) - 1, "", cells)
    top = engine._table_top(xmax, cells)
    return top, engine._rows(top)


_CELL_BUDGETS = [0, 64, asymptotics._TABLE_CELLS]


class TestPsiTable:
    @given(st.lists(st.integers(1, 10**7), min_size=1, max_size=6), st.sampled_from(primes_up_to(20_000)),
           st.integers(-1, 1), st.sampled_from(_CELL_BUDGETS))
    @settings(max_examples=150, deadline=None)
    def test_against_recursion_at_any_table_size(self, xs, q, shift, cells):
        y = max(q + shift, 2)
        with mock.patch.object(asymptotics, "_TABLE_CELLS", cells):
            got = psi_counts(xs, y).tolist()
        assert got == [recursion_oracle(x, y) for x in xs]

    @pytest.mark.parametrize("cells", _CELL_BUDGETS)
    @pytest.mark.parametrize("xmax, y", [(10**7, 997), (10**7, 17_011), (3 * 10**6, 150), (10**6, 2), (10**6, 3)])
    def test_at_the_edge_of_the_table(self, monkeypatch, cells, xmax, y):
        monkeypatch.setattr(asymptotics, "_TABLE_CELLS", cells)
        top, _ = table_shape(xmax, y, cells)
        xs = [x for x in (top - 1, top, top + 1) if x >= 1] + [xmax]
        assert psi_counts(xs, y).tolist() == [recursion_oracle(x, y) for x in xs]

    def test_table_size(self):
        assert table_shape(10**9, 997) == (12_482, 168)  # 168 * 12 483 cells fit 2^21
        assert table_shape(10**7, 997) == (3162, 168)  # capped at sqrt(x)
        assert table_shape(5 * 10**7, 17_000) == (3889, 539)  # rows = pi(T) < 1960
        assert table_shape(10**6, 97, 64) == (11, 5)  # 5 * 12 cells fit 64
        assert table_shape(10**6, 97, 0) == (0, 1)
        assert table_shape(3, 97) == (1, 1)

    def test_every_root_in_the_table(self):
        assert asymptotics._distinct(np.zeros(0, dtype=np.int64)).tolist() == []
        for y in (2, 3, 97, 10**6):
            assert table_shape(1, y)[0] == 1
            assert psi_counts([1], y).tolist() == [1]
            assert psi_counts([1, 1, 1], y).tolist() == [1, 1, 1]
        assert psi_counts([5, 17], 97).tolist() == [5, 17]

    @pytest.mark.parametrize("cells", _CELL_BUDGETS)
    def test_smallest_and_largest_y(self, monkeypatch, cells):
        monkeypatch.setattr(asymptotics, "_TABLE_CELLS", cells)
        xs = [1, 2, 3, 4, 5, 31, 32, 33, 1000, 65_535, 65_536, 10**6, 10**9 + 7]
        assert psi_counts(xs, 2).tolist() == [x.bit_length() for x in xs]
        three = smooth_numbers(PrimeSet.of([2, 3]), max(xs))
        assert psi_counts(xs, 3).tolist() == [bisect_right(three, x) for x in xs]
        small = [x for x in xs if x <= 10**6]
        for y in (10**6, 999_983, 10**6 - 1):
            assert psi_counts(small, y).tolist() == [x if x <= y else recursion_oracle(x, y) for x in small]
        for x in (2, 3, 7, 100):
            assert psi_count(x, x) == psi_count(x, x + 1) == x

    @pytest.mark.parametrize("y", [2, 3, 97, 997, 17_011])
    def test_table_against_the_sieve(self, y):
        # every row over the whole range, and the last row serves every k >= rows
        top, rows = table_shape(10**9, y)
        table = asymptotics._Buchstab(len(primes_up_to(y)) - 1, "", asymptotics._TABLE_CELLS)._table(top)
        assert table.shape == (rows, top + 1)
        ps = primes_up_to(max(y, top))
        for k, row in enumerate(table):
            assert row[0] == 0
            assert np.array_equal(row[1:], psi_count_table(top, ps[k])[1:])
        assert np.array_equal(table[-1, 1:], psi_count_table(top, y)[1:])

    @pytest.mark.parametrize("x, y", [(10**9, 31_623), (999_999_937, 10**5)])
    def test_large_y_against_lucy_at_the_billion(self, x, y):
        assert psi_count(x, y) == lucy_oracle(x, y)

    def test_top_of_the_range_still_refused(self):
        with pytest.raises(RangeError, match=r"x = 1000000000000, y = 997 needs a working set of .* MiB, "
                           r"over the 128 MiB limit"):
            psi_count(10**12, 997)

    def test_the_table_admits_what_the_recursion_alone_cannot(self, monkeypatch):
        # Psi(10^8, 100) needs 1.34 MiB without the table and 1.11 MiB with it
        monkeypatch.setattr(asymptotics, "ARRAY_BYTES_LIMIT", 1_200_000)
        assert psi_count(10**8, 100) == recursion_oracle(10**8, 100)
        monkeypatch.setattr(asymptotics, "_TABLE_CELLS", 0)
        with pytest.raises(RangeError, match=r"x = 100000000, y = 100 needs a working set of 1 MiB"):
            psi_count(10**8, 100)

    def test_a_crowding_table_gives_way(self, monkeypatch):
        # at 1 MiB the table takes half of what the prime table leaves, which
        # crowds out this recursion; the call runs again without the table
        cells = []
        engine = asymptotics._Buchstab

        class Spy(engine):
            def __init__(self, k, where, budget):
                cells.append(budget)
                super().__init__(k, where, budget)

        monkeypatch.setattr(asymptotics, "_Buchstab", Spy)
        monkeypatch.setattr(asymptotics, "ARRAY_BYTES_LIMIT", 2**20)
        assert psi_count(9_028_064, 245) == recursion_oracle(9_028_064, 245)
        assert cells == [asymptotics._TABLE_CELLS, 0]


_SEQUENCES = [SequenceSpec.const_one(), SequenceSpec.prime_indicator(), SequenceSpec.square_indicator(),
              SequenceSpec.custom([0.5, 1, 0, 0.25, 1.0, 0.125])]


class TestAgainstReplacedLoops:
    @given(st.lists(st.sampled_from(primes_up_to(200)), max_size=8), st.integers(1, 10**7))
    @settings(max_examples=150, deadline=None)
    def test_smooth_numbers_random_sets(self, ps, bound):
        F = PrimeSet.of(ps)
        assert smooth_numbers(F, bound) == recursive_smooth_numbers(F, bound)

    @pytest.mark.parametrize("ps, bound", [
        ([2], 2**63 - 1), ([3, 5, 7], 2**63 - 1), ([2, 3, 5], 10**18), ([], 1), ([2], 1), ([97], 96),
    ])
    def test_smooth_numbers_at_the_edges(self, ps, bound):
        F = PrimeSet.of(ps)
        assert smooth_numbers(F, bound) == recursive_smooth_numbers(F, bound)

    @pytest.mark.parametrize("n_primes", range(3, 11))
    @pytest.mark.parametrize("C", [1, 30, 10**4, 10**6, 10**7])
    def test_smooth_harmonic_sum(self, n_primes, C):
        for a in _SEQUENCES:
            got = smooth_harmonic_sum(n_primes, a, C)
            assert tuple(got) == listed_smooth_harmonic_sum(n_primes, a, C)

    @given(
        st.dictionaries(st.integers(-300, 3000),
                        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                        max_size=40),
        st.integers(3, 10),
        st.sets(st.sampled_from([2, 3, 5, 7])),
        st.integers(-6, 6).filter(bool),
        st.integers(-30, 30),
        st.integers(1, 5000),
    )
    @settings(max_examples=200, deadline=None)
    def test_wiener_sum_mapping(self, nu_hat, n_primes, B, ell, k, C):
        B = PrimeSet.of(B)
        want = enumerating_wiener_sum(nu_hat, n_primes, B, ell, k, C)
        got = wiener_sum(nu_hat, n_primes, B, ell, k, C)
        assert (got.real, got.imag) == (want.real, want.imag)

    @pytest.mark.parametrize("ell, k", [(1, 0), (2, 1), (-1, 0), (-3, -2), (5, -7)])
    def test_wiener_sum_mapping_up_to_ten_million(self, ell, k):
        # keys reach every smooth m up to C for the small multipliers
        nu_hat = {j: complex(math.cos(j), math.sin(j)) / 2 for j in range(-120, 121)}
        nu_hat.update({ell * m + k: 0.25j for m in (2**20, 3**14, 2**10 * 3**6 * 5**2, 10**7)})
        for n_primes in (3, 6, 10):
            want = enumerating_wiener_sum(nu_hat, n_primes, PrimeSet.of([]), ell, k, 10**7)
            assert wiener_sum(nu_hat, n_primes, PrimeSet.of([]), ell, k, 10**7) == want

    def test_wiener_sum_reports_the_first_oversized_term(self):
        nu_hat = {9: 1.5, 3: 2.0, 4: 0.5}
        for impl in (wiener_sum, enumerating_wiener_sum):
            with pytest.raises(ValueError, match=r"\|nu_hat\(3\)\| = 2.0 exceeds 1"):
                impl(nu_hat, 3, PrimeSet.of([]), 1, 0, 100)

    @pytest.mark.parametrize("n_primes, ell, k", [(3, 1, 0), (8, 2, 1), (10, -1, 3), (6, -2, -5)])
    def test_wiener_sum_callable(self, n_primes, ell, k):
        fn = lambda j: complex(math.cos(0.3 * j), math.sin(0.7 * j)) / 2  # noqa: E731
        for C in (1, 999, 10**5):
            B = PrimeSet.of([2])
            assert wiener_sum(fn, n_primes, B, ell, k, C) == enumerating_wiener_sum(fn, n_primes, B, ell, k, C)

    @pytest.mark.parametrize("h", [0.01, 0.005, 0.0025, 0.001])
    def test_dickman_raw_grid(self, h):
        n = round(12 / h) if h == 0.001 else round(25 / h)
        assert asymptotics._raw_grid(n, h) == fsum_raw_grid(n, h)

    @pytest.mark.parametrize("h", [0.01, 0.005])
    @pytest.mark.parametrize("u_max", [0.0, 0.5, 1.0, 2.0, 7.3, 20.0, 50.0])
    def test_dickman_grid_and_mass(self, u_max, h):
        assert np.array_equal(dickman_grid(u_max, h).values, fsum_dickman_grid(u_max, h))
        if u_max >= 1.0:  # below two steps the old Simpson rule double-counted v[0]
            assert dickman_mass(u_max, h) == fsum_dickman_mass(u_max, h)

    @pytest.mark.parametrize("h", [0.01, 0.005, 0.001])
    def test_dickman(self, h):
        for u in (0.0, 1.0, 1.0001, 1.37, 2.0, 3.14159, 9.99):
            assert dickman(u, h) == fsum_dickman(u, h)

    @pytest.mark.parametrize("x", [3, 4, 7, 11, 20, 50, 100, 300, 997])
    @pytest.mark.parametrize("u", [1.0, 1.13, 2.5, 3.3])
    def test_delta_estimate(self, u, x):
        assert delta_estimate(u, x) == two_call_delta_estimate(u, x)

    @pytest.mark.parametrize("u, x, calls", [(1.0, 3, 2), (2.5, 4, 2), (2.5, 7, 1), (1.0, 20, 1), (4.5, 100, 1)])
    def test_delta_estimate_counts_twice_only_after_an_early_break(self, monkeypatch, u, x, calls):
        seen = []

        def counting(xs, y):
            seen.append(len(xs))
            return psi_counts(xs, y)

        monkeypatch.setattr(asymptotics, "psi_counts", counting)
        est = delta_estimate(u, x)
        assert len(seen) == calls
        assert est.truncated == (calls == 1)

    @pytest.mark.parametrize("u, x", [(4.5, 100), (9.0, 20), (6.0, 100)])
    def test_delta_estimate_without_probes(self, u, x):
        assert delta_estimate(u, x) == two_call_delta_estimate(u, x)


class TestPsiCount:
    def test_everything_is_smooth_when_y_large(self):
        for x in (1, 7, 100, 12345):
            assert psi_count(x, max(x, 2)) == x

    def test_powers_of_two(self):
        assert psi_count(16, 2) == 5  # {1, 2, 4, 8, 16}
        assert psi_count(15, 2) == 4

    def test_against_enumeration_oracle(self):
        table = brute_smooth_counts(100_000, 100)
        rng = random.Random(3)
        for _ in range(300):
            x = rng.randint(1, 100_000)
            assert psi_count(x, 100) == table[x]

    def test_table_matches_scalar_and_oracle(self):
        for y in (2, 13, 97):
            table = psi_count_table(20_000, y)
            oracle = brute_smooth_counts(20_000, y)
            assert np.array_equal(table[1:], oracle[1:])
            for x in (1, 17, 1024, 19999):
                assert psi_count(x, y) == table[x]

    def test_monotone_in_both_arguments(self):
        rng = random.Random(5)
        for _ in range(50):
            x = rng.randint(2, 50_000)
            assert psi_count(x, 7) <= psi_count(x + rng.randint(1, 100), 7)
            assert psi_count(x, 7) <= psi_count(x, 11)

    def test_memo_keys_distinct_past_prime_index_2048(self):
        # the index of 19000's largest prime exceeds 2048; a key packing the
        # index into 11 bits hands this call an entry of the first one
        psi_count(20001, 601)
        n_primes = len(primes_up_to(20000)) - len(primes_up_to(19000))
        assert psi_count(20000, 19000) == 20000 - n_primes

    def test_domain_guards(self):
        with pytest.raises(RangeError):
            psi_count(10**12 + 1, 100)
        with pytest.raises(ValueError):
            psi_count(10, 1)

    def test_non_integers_rejected(self):
        for x, y in ((10.7, 7), (10, 7.0), (np.float64(10.0), 7)):
            with pytest.raises(TypeError):
                psi_count(x, y)
            with pytest.raises(TypeError):
                psi_counts([1, x], y)
        assert psi_count(np.int64(100), np.int32(7)) == psi_count(100, 7)

    def test_working_set_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "ARRAY_BYTES_LIMIT", 2**20)
        with pytest.raises(RangeError, match=r"x = 1000000000, y = 997 needs .* MiB, over the 1 MiB limit"):
            psi_count(10**9, 997)
        with pytest.raises(RangeError, match=r"x = 1000000000, y = 997"):
            psi_counts([5, 10**9, 17], 997)
        assert psi_count(10**5, 97) == 17442

    def test_table_refused_over_the_array_limit(self):
        # 9 * (10^8 + 1) bytes, refused before anything is allocated
        with pytest.raises(RangeError, match="xmax = 100000000 needs 858 MiB"):
            psi_count_table(10**8, 97)


class TestDickman:
    def test_flat_on_unit_interval(self):
        assert dickman(0.0) == 1.0
        assert dickman(0.7) == 1.0
        assert dickman(1.0) == 1.0

    def test_value_at_two(self):
        assert abs(dickman(2.0) - (1 - math.log(2))) < 1e-6

    def test_off_grid_interpolation(self):
        # rho(u) = 1 - ln u on [1, 2]
        for u in (1.2345, 1.618, 1.9997):
            assert abs(dickman(u) - (1 - math.log(u))) < 1e-6

    def test_positive_and_decreasing(self):
        g = dickman_grid(20.0, 0.005)
        M = round(1 / 0.005)
        vals = g.values[M:]
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 0)

    def test_delay_equation_residuals(self):
        # central differences lose an order at the integer kinks (derivative
        # jumps propagate from u = 1), so those points only get the O(h) bound
        h = 0.005
        g = dickman_grid(10.0, h)
        res = g.residuals()
        assert float(np.max(np.abs(res))) < 2 * h
        us = (np.arange(len(res)) + round(1 / h) + 1) * h
        away = np.abs(us - np.round(us)) > 3 * h
        assert float(np.max(np.abs(res[away]))) < 5e-5

    def test_step_guard(self):
        with pytest.raises(ValueError):
            dickman(2.0, h=0.02)

    @pytest.mark.parametrize("fn, arg", [(dickman, "u"), (dickman_grid, "u_max"), (dickman_mass, "u_max")])
    def test_input_guards_name_the_argument(self, fn, arg):
        name = fn.__name__
        for h in (0.0, -0.005, math.nan):
            with pytest.raises(ValueError, match=rf"^{name} requires a step h > 0, got {h}$"):
                fn(2.0, h)
        for u in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^{name} requires a finite {arg}, got {u}$"):
                fn(u)
        with pytest.raises(ValueError, match=rf"^{name} requires {arg} >= 0, got -1.0$"):
            fn(-1.0)
        with pytest.raises(ValueError, match=rf"^{arg} must be <= "):
            fn(60.0)

    def test_top_of_the_range(self):
        assert dickman(50.0 - 2 * 0.005) > 0
        with pytest.raises(ValueError, match=r"^u must be <= 49.99 at step h = 0.005, got 49.995$"):
            dickman(49.995)
        assert dickman_grid(50.0).values.size == 10_001


class TestDickmanMass:
    def test_unit_interval_exact(self):
        # flat integrand; only float roundoff of the step survives
        assert dickman_mass(1.0, 0.005) == pytest.approx(1.0, abs=1e-12)

    def test_mass_to_two_closed_form(self):
        # integral over [0,2] is 1 + int_1^2 (1 - ln t) dt = 3 - 2 ln 2
        assert dickman_mass(2.0, 0.005) == pytest.approx(3 - 2 * math.log(2), abs=1e-7)

    def test_total_mass(self):
        assert abs(dickman_mass(20.0, 0.005) - math.exp(EULER_GAMMA)) <= 1e-3

    def test_fewer_than_two_steps(self):
        # rho = 1 on [0, 1]: no step integrates to 0 and one step to h
        assert dickman_mass(0.0) == 0.0
        assert dickman_mass(0.005) == 0.005
        assert dickman_mass(0.003) == 0.005
        assert dickman_mass(0.01) == pytest.approx(0.01, abs=1e-15)


class TestMertens:
    def test_small_product_exact(self):
        got = mertens_product(10)
        assert got.product == pytest.approx(8 / 35, rel=1e-13)

    def test_scaled_converges(self):
        r3 = mertens_product(10**3)
        r6 = mertens_product(10**6)
        assert r6.rel_dev < 0.10
        assert r6.rel_dev < r3.rel_dev

    def test_guard(self):
        with pytest.raises(ValueError):
            mertens_product(2)


class TestSmoothHarmonicSum:
    def test_const_one_approaches_unity(self):
        value, share = smooth_harmonic_sum(6, SequenceSpec.const_one(), 10**6)
        assert value == pytest.approx(1.0, abs=share + 1e-12)
        assert 0 <= share < 0.02

    def test_zero_sequence(self):
        value, _ = smooth_harmonic_sum(5, SequenceSpec.const_zero(), 10**4)
        assert value == 0.0

    def test_prime_indicator_decreasing_small(self):
        vals = [
            smooth_harmonic_sum(n, SequenceSpec.prime_indicator(), 10**5).value
            for n in range(3, 8)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_sequence_range_guard(self):
        with pytest.raises(ValueError):
            smooth_harmonic_sum(3, SequenceSpec.custom([2.0]), 100)


class TestDensitySum:
    def test_squares_decreasing(self):
        rows = density_sum(SequenceSpec.square_indicator(), 8, 10**5)
        vals = [v for _, v in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_full_set_control(self):
        rows = density_sum(SequenceSpec.const_one(), 6, 10**6)
        assert rows[-1][1] == pytest.approx(1.0, abs=0.02)

    def test_empty_set(self):
        rows = density_sum(SequenceSpec.const_zero(), 5, 10**4)
        assert all(v == 0.0 for _, v in rows)


class TestWienerSum:
    def test_lebesgue_single_term(self):
        # nu_hat = delta_0: only l m + k = 0 contributes
        for n in (3, 6):
            got = wiener_sum({0: 1.0}, n, PrimeSet.of([]), 1, -1, 10**4)
            pref = math.prod(1 - 1 / p for p in primes_up_to(20)[:n])
            assert got.real == pytest.approx(pref, rel=1e-12)

    def test_cosine_density_decreasing(self):
        nu_hat = {0: 1.0, 1: 0.5, -1: 0.5}
        vals = [
            abs(wiener_sum(nu_hat, n, PrimeSet.of([]), 1, 0, 10**4))
            for n in range(3, 9)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_atomic_contrast_bounded_away(self):
        nu_hat = lambda m: (-1.0) ** m  # point mass at the half turn
        for n in (3, 6, 9):
            got = wiener_sum(nu_hat, n, PrimeSet.of([2]), 1, 0, 10**5)
            assert abs(got) > 0.2

    def test_ell_zero_rejected(self):
        with pytest.raises(ValueError):
            wiener_sum({0: 1.0}, 3, PrimeSet.of([]), 0, 1, 100)

    def test_magnitude_guard(self):
        with pytest.raises(ValueError):
            wiener_sum({1: 2.0}, 3, PrimeSet.of([]), 1, 0, 100)


class TestDeltaEstimate:
    def test_nonfinite_u_rejected(self):
        for u in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite u"):
                delta_estimate(u, 100)

    def test_beyond_the_counter_refused(self):
        with pytest.raises(RangeError, match=r"^delta_estimate at u = 9.0, x = 50 counts at x\^u = 10\^15.29, "
                           r"beyond the counter's x <= 1000000000000$"):
            delta_estimate(9.0, 50)
        for u in (7.0001, 1e6, 1e300):  # 1000^1e6 overflows a double
            with pytest.raises(RangeError, match="beyond the counter"):
                delta_estimate(u, 1000)
        assert delta_estimate(6.0, 100).truncated  # x^u = 10^12 is admitted

    def test_large_u_collapses(self):
        est = delta_estimate(4.5, 100)
        assert est.value < 1e-3

    def test_delta_one_near_euler_constant(self):
        est = delta_estimate(1.0, 1000)
        target = math.exp(EULER_GAMMA) - 1
        assert abs(est.value - target) / target < 0.15
        assert est.truncated  # desk-scale cap fires at x = 1000

    def test_derivative_matches_dickman(self):
        d15 = delta_estimate(1.5, 1000).value
        d20 = delta_estimate(2.0, 1000).value
        g = dickman_grid(2.0, 0.005)
        h = 0.005
        i0, i1 = round(1.5 / h), round(2.0 / h)
        seg = g.values[i0 : i1 + 1]
        rho_int = float(h * (np.sum(seg) - 0.5 * (seg[0] + seg[-1])))
        assert abs((d15 - d20) - rho_int) / rho_int < 0.10

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            delta_estimate(0.5, 100)
        with pytest.raises(ValueError):
            delta_estimate(1.0, 5000)


class TestAbelSummation:
    def test_exact_for_step_functions(self):
        # sum_{m<=x} b_m/m = int_1^x B(t)/t^2 dt + B(x)/x, exactly over rationals
        rng = random.Random(11)
        for _ in range(10):
            x = rng.randint(10, 2000)
            b = [rng.randint(0, 1) for _ in range(x + 1)]
            lhs = sum(Fraction(b[m], m) for m in range(1, x + 1))
            # B is a step function: integral is sum of B(m) * (1/m - 1/(m+1))
            B = 0
            integral = Fraction(0)
            for m in range(1, x):
                B += b[m]
                integral += B * (Fraction(1, m) - Fraction(1, m + 1))
            B_x = B + b[x]
            rhs = integral + Fraction(B_x, x)
            assert lhs == rhs


class TestCrossModuleInvariants:
    def test_smooth_enumeration_matches_counter(self):
        # |{F-smooth <= x}| equals the exact counter when F is all primes <= y
        from affkms.arith import smooth_numbers

        for y in (2, 7, 29):
            F = PrimeSet.of(primes_up_to(y))
            for x in (1, 10, 500, 20_000):
                assert len(smooth_numbers(F, x)) == psi_count(x, y)

    def test_smooth_ratio_tracks_dickman(self):
        # Psi(x^u, x)/x^u stays within 25% of rho(u) at x = 1e3 (qualitative band)
        for u in (1.5, 2.0, 2.5):
            ratio = psi_count(int(1000.0**u), 1000) / 1000.0**u
            rho = dickman(u)
            assert abs(ratio - rho) / rho <= 0.25

    def test_const_one_increasing_toward_euler_cap(self):
        # at fixed n_primes the scaled sum climbs with the truncation bound
        # toward the Euler-product value 1, never past it
        vals = [
            smooth_harmonic_sum(6, SequenceSpec.const_one(), c).value
            for c in (10**2, 10**3, 10**4, 10**5, 10**6)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 + 1e-12 for v in vals)
        assert vals[-1] == pytest.approx(1.0, abs=2e-3)


class TestConcurrency:
    def test_parallel_psi_count_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        args = [(x, y) for x in (10, 123, 4567, 89_000) for y in (2, 7, 97)]
        expected = [psi_count(x, y) for x, y in args]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda a: psi_count(*a), args * 8))
        assert got == expected * 8
