import math
import random
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkms import arith
from affkms.arith import (
    PrimeSet,
    RangeError,
    divisors,
    factorize,
    first_primes,
    hurwitz_zeta,
    hurwitz_zeta_bounded,
    is_prime,
    mobius,
    mobius_invert,
    partial_zeta,
    require,
    residue_weights,
    smooth_numbers,
    squarefree_products,
    totient,
    totient_beta,
    zeta,
)


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_remultiplication_oracle_2_pow_40_plus_1(self):
        n = 2**40 + 1
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    def test_primes_strictly_increasing(self):
        for n in (360, 9699690, 2**40 + 1):
            ps = [p for p, _ in factorize(n).factors]
            assert ps == sorted(set(ps))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_semiprime_beyond_desk_scale_rejected(self):
        # both factors exceed the trial-division table
        with pytest.raises(RangeError):
            factorize(1_000_003 * 1_000_033)

    def test_beyond_64_bit_rejected(self):
        with pytest.raises(RangeError):
            factorize(2**63 + 1)


def brute_mobius(n):
    # independent squarefree/parity computation
    count = 0
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            count += 1
        d += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


class TestMobius:
    @pytest.mark.parametrize("n,expected", [(1, 1), (12, 0), (30, -1)])
    def test_values(self, n, expected):
        assert mobius(n) == expected

    def test_brute_force_oracle(self):
        for n in range(1, 500):
            assert mobius(n) == brute_mobius(n)

    def test_sum_over_divisors_is_delta(self):
        for n in range(2, 400):
            assert sum(mobius(d) for d in divisors(n)) == 0
        assert sum(mobius(d) for d in divisors(1)) == 1


class TestTotient:
    def test_delta_at_beta_zero(self):
        assert totient_beta(6, 0.0) == 0.0
        assert totient_beta(1, 0.0) == 1.0

    def test_totient_12(self):
        assert totient(12) == 4

    def test_totient_beta_6_2(self):
        assert totient_beta(6, 2.0) == pytest.approx(24.0, abs=1e-12)

    def test_matches_integer_route(self):
        for n in range(1, 300):
            assert totient(n) == pytest.approx(totient_beta(n, 1.0), rel=1e-12)

    @given(st.integers(2, 500), st.integers(2, 500))
    @settings(max_examples=150, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, m, n):
        if gcd(m, n) != 1:
            return
        for beta in (0.3, 1.0, 1.7):
            assert totient_beta(m * n, beta) == pytest.approx(
                totient_beta(m, beta) * totient_beta(n, beta), rel=1e-12
            )

    def test_mobius_convolution_identity(self):
        # sum_{d|n} mu(d) (n/d) = phi(n), exactly in integers
        for n in range(1, 10_001):
            assert sum(mobius(d) * (n // d) for d in divisors(n)) == totient(n)


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_pairing_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 100_000)
            ds = divisors(n)
            assert all(n % d == 0 and (n // d) in ds for d in ds)
            assert ds == sorted(ds)


class TestSmoothNumbers:
    def test_powers_of_two(self):
        assert smooth_numbers(PrimeSet.of([2]), 20) == [1, 2, 4, 8, 16]

    def test_brute_force_filter_oracle(self):
        F = PrimeSet.of([2, 3])
        assert smooth_numbers(F, 12) == [1, 2, 3, 4, 6, 8, 9, 12]
        for bound in (50, 200):
            expected = []
            for m in range(1, bound + 1):
                t = m
                for p in (2, 3):
                    while t % p == 0:
                        t //= p
                if t == 1:
                    expected.append(m)
            assert smooth_numbers(F, bound) == expected

    def test_empty_generating_set(self):
        assert smooth_numbers(PrimeSet.of([]), 100) == [1]

    def test_top_of_the_64_bit_range(self):
        assert smooth_numbers(PrimeSet.of([2]), 2**63 - 1) == [2**e for e in range(63)]
        with pytest.raises(RangeError, match=r"requires bound < 2\^63, got 9223372036854775808"):
            smooth_numbers(PrimeSet.of([2]), 2**63)

    def test_refused_before_the_array_limit(self, monkeypatch):
        # {2, 3}-smooth up to 6 has 5 members, up to 8 six
        monkeypatch.setattr(arith, "ARRAY_BYTES_LIMIT", 5 * arith.SMOOTH_BYTES)
        F = PrimeSet.of([2, 3])
        assert smooth_numbers(F, 6) == [1, 2, 3, 4, 6]
        with pytest.raises(RangeError, match="lists more than 6 integers"):
            smooth_numbers(F, 8)

    def test_huge_monoid_refused_at_once(self):
        # Psi(10^12, 113) = 125 157 620 integers would need about 6 GB
        with pytest.raises(RangeError, match=r"^smooth_numbers of 30 primes up to 1000000000000 lists more than"):
            smooth_numbers(PrimeSet.of(first_primes(30)), 10**12)


class TestFirstPrimes:
    def test_prefixes(self):
        assert first_primes(0) == []
        assert first_primes(5) == [2, 3, 5, 7, 11]

    @pytest.mark.parametrize("k", [-1, -2, -78_498])
    def test_negative_count_refused(self, k):
        # a negative slice would hand back all but the last |k| primes
        with pytest.raises(ValueError, match=rf"^first_primes requires k >= 0, got {k}$"):
            first_primes(k)


class TestRequire:
    @pytest.mark.parametrize("value, bounds, rule", [
        (1.0, {"gt": 1}, "beta > 1"),
        (-0.5, {"ge": 0}, "beta >= 0"),
        (0.0, {"gt": 0, "le": 1}, "0 < beta <= 1"),
        (1.5, {"gt": 0, "le": 1}, "0 < beta <= 1"),
        (-1.0, {"ge": 0, "le": 1}, "0 <= beta <= 1"),
        (2.0, {"le": 1}, "beta <= 1"),
    ])
    def test_out_of_range_names_the_rule(self, value, bounds, rule):
        with pytest.raises(ValueError, match=rf"^entry requires {re.escape(rule)}, got {value}$"):
            require("entry", "beta", value, **bounds)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bounds", [{}, {"ge": 0}, {"gt": 0, "le": 1}])
    def test_non_finite_refused_before_the_bounds(self, value, bounds):
        with pytest.raises(ValueError, match=rf"^entry requires a finite tol, got {value}$"):
            require("entry", "tol", value, **bounds)

    def test_inside_the_bounds_passes(self):
        for value, bounds in ((0.0, {"ge": 0}), (1.0, {"gt": 0, "le": 1}), (1e-300, {"gt": 0}), (-5.0, {})):
            require("entry", "beta", value, **bounds)


class TestPartialZeta:
    def test_geometric(self):
        assert partial_zeta(PrimeSet.of([2]), 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_two_three(self):
        assert partial_zeta(PrimeSet.of([2, 3]), 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_tail_bound_against_basel(self):
        F = PrimeSet.of([p for p in range(2, 101) if is_prime(p)])
        tail = sum(1.0 / m**2 for m in range(101, 100_000))
        assert abs(partial_zeta(F, 2.0) - math.pi**2 / 6) <= tail + 1e-9

    def test_reciprocal_is_squarefree_mobius_sum(self):
        F = PrimeSet.of([2, 3, 5, 7])
        for beta in (0.4, 1.0, 2.3):
            recip = sum(mobius(d) * d**-beta for d in squarefree_products(F))
            assert recip == pytest.approx(1.0 / partial_zeta(F, beta), abs=1e-12)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            partial_zeta(PrimeSet.of([2]), 0.0)
        assert partial_zeta(PrimeSet.of([]), 0.5) == 1.0


class TestMobiusInvert:
    def test_constant_one_gives_delta(self):
        g = {d: 1.0 for d in divisors(30)}
        f = mobius_invert(g, 30)
        assert f[1] == pytest.approx(1.0)
        for d in divisors(30):
            if d > 1:
                assert f[d] == pytest.approx(0.0, abs=1e-14)

    def test_identity_gives_totient(self):
        g = {d: float(d) for d in divisors(60)}
        f = mobius_invert(g, 60)
        for d in divisors(60):
            assert f[d] == pytest.approx(totient(d))

    def test_random_roundtrip(self):
        rng = random.Random(11)
        g = {d: rng.uniform(-2, 2) for d in divisors(60)}
        f = mobius_invert(g, 60)
        for n in divisors(60):
            forward = sum(f[d] for d in divisors(n))
            assert forward == pytest.approx(g[n], abs=1e-12)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            mobius_invert({1: 1.0, 2: 1.0}, 12)


class TestHurwitzZeta:
    def test_reduces_to_zeta(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_multiplication_theorem_direct_sum_oracle(self):
        # sum_{k=1..4} zeta(2, k/4) = 4^2 zeta(2); bracket each side by direct
        # summation with an integral tail
        def direct(a, N=2_000_000):
            s = sum((n + a) ** -2.0 for n in range(N))
            lo = 1.0 / (N + a)
            return s + lo, s + lo + (N + a) ** -2.0

        lhs = sum(hurwitz_zeta(2.0, k / 4) for k in (1, 2, 3, 4))
        total_lo = total_hi = 0.0
        for k in (1, 2, 3, 4):
            lo, hi = direct(k / 4)
            total_lo += lo
            total_hi += hi
        assert total_lo - 1e-9 <= lhs <= total_hi + 1e-9
        assert lhs == pytest.approx(16.0 * zeta(2.0), rel=1e-12)

    def test_half_parameter_identity(self):
        # zeta(beta, 1/2) = (2^beta - 1) zeta(beta)
        for beta in (1.5, 2.0, 3.0):
            assert hurwitz_zeta(beta, 0.5) == pytest.approx(
                (2.0**beta - 1.0) * zeta(beta), rel=1e-12
            )

    GRID_BETAS = (1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1 + 1e-3, 1.1, 1.5, 2.0, 3.7, 7.0, 12.0, 20.0)
    GRID_AS = (1e-3, 0.01, 0.1, 1 / 3, 0.5, 0.77, 0.999, 1.0)

    def test_matches_mpmath_on_grid(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for beta in self.GRID_BETAS:
            for a in self.GRID_AS:
                want = mpmath.zeta(beta, a)
                assert abs((hurwitz_zeta(beta, a) - want) / want) <= 1e-15, (beta, a)

    def test_bound_covers_remainder(self):
        # the remainder of the 30-term head plus pole term, midpoint term and
        # four Bernoulli corrections, all in high precision; the head cancels
        # from zeta(beta, a) - head = zeta(beta, 30 + a)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for beta in self.GRID_BETAS:
            s = mpmath.mpf(beta)
            for a in self.GRID_AS:
                x = 30 + mpmath.mpf(a)
                tail = x ** (1 - s) / (s - 1) + x**-s / 2
                for j in range(1, 5):
                    tail += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                             * mpmath.rf(s, 2 * j - 1) * x ** (-s - 2 * j + 1))
                remainder = abs(mpmath.zeta(s, x) - tail)
                assert remainder <= hurwitz_zeta_bounded(beta, a)[1], (beta, a)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta(0.5, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 1.5)


class TestResidueWeights:
    def test_classes_sum_to_zeta(self):
        for q in (1, 4, 7, 12):
            for beta in (1 + 1e-9, 1.5, 4.0):
                weights, err = residue_weights(q, beta)
                assert len(weights) == q
                assert math.fsum(weights) == pytest.approx(zeta(beta), rel=1e-14)
                assert 0 < err < 1e-13 * zeta(beta)

    def test_against_direct_class_sums(self):
        # class r of 5 at beta = 3, summed directly with an integral tail bracket
        weights, _ = residue_weights(5, 3.0)
        for r in range(5):
            cs = range(r or 5, 200_000, 5)
            head = math.fsum(c**-3.0 for c in cs)
            last = cs[-1] + 5
            lo, hi = head + last**-2.0 / 10, head + (last - 5) ** -2.0 / 10
            assert lo - 1e-15 <= weights[r] <= hi + 1e-15

    def test_huge_modulus_refused_before_the_first_hurwitz_call(self):
        with pytest.raises(RangeError, match=r"q = 999999937 classes needs 31471 MiB, over the 128"):
            residue_weights(999999937, 2.0)

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(arith, "ARRAY_BYTES_LIMIT", 100 * arith.RESIDUE_BYTES)
        assert len(residue_weights(100, 2.0)[0]) == 100
        with pytest.raises(RangeError, match=r"q = 101 classes"):
            residue_weights(101, 2.0)


class TestConcurrency:
    def test_parallel_factorize_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        ns = [2**40 + 1, 9_699_690, 104_729, 600_851_475_143]
        expected = [factorize(n).factors for n in ns]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda n: factorize(n).factors, ns * 10))
        assert got == expected * 10
