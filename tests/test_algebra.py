import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkms.arith import PrimeSet, RangeError, divisors
from affkms.algebra import (
    IDENTITY,
    AlgebraElement,
    Monomial,
    SpectrumPoint,
    adjoint,
    alpha,
    mono_mul,
    projection_eF,
    projection_eab,
    range_projection,
    sigma_ibeta_factor,
    spectra_project,
)
from affkms.measures import root


def rand_monomial(rng, hi=30, khi=20):
    return Monomial(rng.randint(1, hi), rng.randint(-khi, khi), rng.randint(1, hi))


def oracle_init(items):
    """The term dict of AlgebraElement(items) by the constructor's own former loop."""
    acc = {}
    for m, c in items:
        c = complex(c)
        if c == 0:
            continue
        nc = acc.get(m, 0j) + c
        if nc == 0:
            acc.pop(m, None)
        else:
            acc[m] = nc
    return acc


def oracle_add(x, y):
    """x + y by the former loop, passed through the former constructor once more."""
    acc = dict(x)
    for m, c in y.items():
        nc = acc.get(m, 0j) + c
        if nc == 0:
            acc.pop(m, None)
        else:
            acc[m] = nc
    return oracle_init(acc.items())


def oracle_mul(x, y):
    """x * y by the former double loop, passed through the former constructor once more."""
    acc = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            m = mono_mul(mx, my)
            nc = acc.get(m, 0j) + cx * cy
            if nc == 0:
                acc.pop(m, None)
            else:
                acc[m] = nc
    return oracle_init(acc.items())


def bits(terms):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in terms.items()]


# few monomials, so that sums collide; parts that cancel, round and carry a sign of zero
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 0.1, -0.1, 1 / 3, 3.0])
_COEFFS = st.one_of(st.builds(complex, _PARTS, _PARTS), _PARTS, st.integers(-2, 2))
_TERMS = st.lists(st.tuples(st.builds(Monomial, st.integers(1, 6), st.integers(-2, 2), st.integers(1, 6)),
                            _COEFFS), max_size=12)


class TestMonoMul:
    def test_hand_example(self):
        assert mono_mul(Monomial(2, 1, 3), Monomial(3, 1, 5)) == Monomial(2, 2, 5)

    def test_monoid_law(self):
        rng = random.Random(3)
        for _ in range(200):
            a, m = rng.randint(1, 50), rng.randint(-30, 30)
            b, n = rng.randint(1, 50), rng.randint(-30, 30)
            assert mono_mul(Monomial(a, m, 1), Monomial(b, n, 1)) == Monomial(
                a * b, b * m + n, 1
            )

    def test_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            y = rand_monomial(rng)
            assert mono_mul(IDENTITY, y) == y
            assert mono_mul(y, IDENTITY) == y

    def test_associative_bulk(self):
        rng = random.Random(17)
        for _ in range(10_000):
            x, y, z = (rand_monomial(rng, hi=20, khi=10) for _ in range(3))
            assert mono_mul(mono_mul(x, y), z) == mono_mul(x, mono_mul(y, z))

    def test_overflow_guarded(self):
        big = 2**40
        with pytest.raises(RangeError):
            mono_mul(Monomial(big, 0, 1), Monomial(big, 0, 1))

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            Monomial(0, 1, 1)


class TestAdjoint:
    def test_examples(self):
        assert adjoint(Monomial(2, 3, 5)) == Monomial(5, -3, 2)
        assert adjoint(Monomial(4, 0, 4)) == Monomial(4, 0, 4)

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(23)
        for _ in range(100):
            x, y = rand_monomial(rng), rand_monomial(rng)
            assert adjoint(adjoint(x)) == x
            assert adjoint(mono_mul(x, y)) == mono_mul(adjoint(y), adjoint(x))


class TestPresentation:
    def test_relation_U_Va(self):
        # U V_a = V_a U^a
        for a in range(1, 101):
            assert mono_mul(Monomial(1, 1, 1), Monomial(a, 0, 1)) == Monomial(a, a, 1)

    def test_relation_coprime_commutation(self):
        # V_a^* V_b = V_b V_a^* when gcd(a, b) = 1
        for a in range(1, 30):
            for b in range(1, 30):
                if gcd(a, b) == 1:
                    lhs = mono_mul(Monomial(1, 0, a), Monomial(b, 0, 1))
                    rhs = mono_mul(Monomial(b, 0, 1), Monomial(1, 0, a))
                    assert lhs == rhs == Monomial(b, 0, a)

    def test_isometry_relation(self):
        for a in range(1, 50):
            assert mono_mul(Monomial(1, 0, a), Monomial(a, 0, 1)) == IDENTITY

    def test_diagonal_product_rule(self):
        # (V_b U^m V_b^*)(V_c U^n V_c^*) = V_L U^{L(m/b + n/c)} V_L^*, L = lcm(b,c)
        rng = random.Random(29)
        for b in range(1, 51):
            for c in range(1, 51):
                m, n = rng.randint(-10, 10), rng.randint(-10, 10)
                L = lcm(b, c)
                got = mono_mul(Monomial(b, m, b), Monomial(c, n, c))
                assert got == Monomial(L, (L // b) * m + (L // c) * n, L)


class TestElementOps:
    def test_distributivity_on_integer_elements(self):
        rng = random.Random(31)
        for _ in range(30):
            def rand_elem():
                return AlgebraElement(
                    {rand_monomial(rng, hi=8, khi=5): complex(rng.randint(-3, 3)) for _ in range(3)}
                )

            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert ((x + y) * z).equals(x * z + y * z)

    def test_zero_and_one(self):
        rng = random.Random(37)
        x = AlgebraElement({rand_monomial(rng): 2.5 + 1j})
        assert (AlgebraElement.zero() * x).is_zero()
        assert (AlgebraElement.one() * x).equals(x)
        assert x.scale(0).is_zero()

    def test_adjoint_antilinear(self):
        m = Monomial(2, 3, 5)
        x = AlgebraElement({m: 1 + 2j})
        assert x.adjoint().coeff(adjoint(m)) == 1 - 2j

    def test_associativity_of_element_product(self):
        rng = random.Random(41)
        for _ in range(20):
            elems = [
                AlgebraElement(
                    {rand_monomial(rng, hi=6, khi=4): complex(rng.randint(-2, 2)) for _ in range(2)}
                )
                for _ in range(3)
            ]
            x, y, z = elems
            assert ((x * y) * z).equals(x * (y * z))

    @settings(max_examples=400, deadline=None)
    @given(_TERMS, _TERMS)
    def test_sums_and_products_match_the_former_loops(self, px, py):
        # same keys, key order and float.hex of every coefficient part
        x, y = AlgebraElement(px), AlgebraElement(py)
        ox, oy = oracle_init(px), oracle_init(py)
        assert bits(x.terms()) == bits(ox)
        assert bits(AlgebraElement(dict(px)).terms()) == bits(oracle_init(dict(px).items()))
        assert bits((x + y).terms()) == bits(oracle_add(ox, oy))
        assert bits((x * y).terms()) == bits(oracle_mul(ox, oy))
        assert bits((x - x).terms()) == []

    def test_has_integer_coeffs(self):
        m = Monomial(2, 1, 3)
        assert AlgebraElement({m: 2, IDENTITY: -3.0}).has_integer_coeffs()
        assert AlgebraElement().has_integer_coeffs()
        assert not AlgebraElement({m: 2, IDENTITY: 0.5}).has_integer_coeffs()
        assert not AlgebraElement({m: 1j}).has_integer_coeffs()

    def test_equals_exact_on_integers_and_tolerant_otherwise(self):
        m = Monomial(2, 1, 3)
        # integer coefficients compare exactly, whatever the tolerance
        assert not AlgebraElement({m: 1}).equals(AlgebraElement({m: 2}), tol=10.0)
        # 0.1 + 0.2 differs from 0.3 by one rounding, inside the default tolerance
        x, y = AlgebraElement({m: 0.1}) + AlgebraElement({m: 0.2}), AlgebraElement({m: 0.3})
        assert x.coeff(m) != y.coeff(m)
        assert x.equals(y)
        assert not x.equals(y, tol=0.0)
        assert not x.equals(AlgebraElement({m: 0.3, IDENTITY: 1e-9}))


class TestSigmaFactor:
    def test_diagonal_is_one(self):
        assert sigma_ibeta_factor(Monomial(7, 3, 7), 1.3) == 1.0

    def test_direct_power(self):
        assert sigma_ibeta_factor(Monomial(2, 5, 1), 1.0) == pytest.approx(0.5)

    def test_adjoint_symmetry(self):
        rng = random.Random(43)
        for _ in range(50):
            x = rand_monomial(rng)
            prod = sigma_ibeta_factor(x, 0.8) * sigma_ibeta_factor(adjoint(x), 0.8)
            assert prod == pytest.approx(1.0, rel=1e-12)


class TestProjections:
    def test_eF_empty_is_identity(self):
        assert projection_eF(PrimeSet.of([])).equals(AlgebraElement.one())

    def test_eF_single_prime(self):
        e2 = projection_eF(PrimeSet.of([2]))
        assert e2.coeff(Monomial(1, 0, 1)) == 1
        assert e2.coeff(Monomial(2, 0, 2)) == -1
        assert len(e2) == 2

    def test_eF_idempotent_exactly(self):
        eF = projection_eF(PrimeSet.of([2, 3]))
        assert (eF * eF).equals(eF)
        assert eF.adjoint().equals(eF)

    def test_eF_size_guard(self):
        with pytest.raises(ValueError):
            projection_eF(PrimeSet.first_n(21))

    def test_eab_trivial(self):
        assert projection_eab(5, 5).equals(AlgebraElement.monomial(Monomial(5, 0, 5)))

    def test_eab_inclusion_exclusion(self):
        e = projection_eab(6, 1)
        expected = AlgebraElement(
            {
                Monomial(1, 0, 1): 1,
                Monomial(2, 0, 2): -1,
                Monomial(3, 0, 3): -1,
                Monomial(6, 0, 6): 1,
            }
        )
        assert e.equals(expected)

    def test_eab_family_sums_to_range_projection(self):
        total = AlgebraElement.zero()
        for d in divisors(12 // 2):
            total = total + projection_eab(12, 2 * d)
        assert total.equals(range_projection(2))

    def test_eab_divisibility_guard(self):
        with pytest.raises(ValueError):
            projection_eab(6, 4)

    def test_eab_idempotent_and_orthogonal_small(self):
        for a in (12, 24):
            for b in divisors(a):
                fam = [projection_eab(a, b * d) for d in divisors(a // b)]
                for i, p in enumerate(fam):
                    assert (p * p).equals(p)
                    for q in fam[i + 1 :]:
                        assert (p * q).is_zero()

    def test_alpha_compression(self):
        eF = projection_eF(PrimeSet.of([2]))
        got = alpha(3, eF)
        expected = AlgebraElement({Monomial(3, 0, 3): 1, Monomial(6, 0, 6): -1})
        assert got.equals(expected)


class TestSpectraProject:
    def test_divisor_of_a_unchanged(self):
        p = SpectrumPoint(root(1, 3), 3)
        q = spectra_project(p, 6, 12)
        assert q == SpectrumPoint(root(1, 3), 3)

    def test_hand_example(self):
        p = SpectrumPoint(root(1, 6), 6)
        q = spectra_project(p, 2, 6)
        assert q == SpectrumPoint(root(1, 2), 2)

    def test_composition_law(self):
        rng = random.Random(47)
        for _ in range(300):
            a = rng.randint(1, 20)
            b = a * rng.randint(1, 6)
            c = b * rng.randint(1, 6)
            d = rng.choice(divisors(c))
            z = root(rng.randrange(d), d)
            p = SpectrumPoint(z, d)
            via_b = spectra_project(spectra_project(p, b, c), a, b)
            direct = spectra_project(p, a, c)
            assert via_b == direct

    def test_divisibility_guards(self):
        with pytest.raises(ValueError):
            spectra_project(SpectrumPoint(root(0, 1), 1), 4, 6)
        with pytest.raises(ValueError):
            spectra_project(SpectrumPoint(root(1, 5), 5), 2, 6)

