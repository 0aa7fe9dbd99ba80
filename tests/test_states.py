import math
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkms import states
from affkms.arith import PrimeSet, RangeError, divisors, partial_zeta, smooth_numbers
from affkms.algebra import AlgebraElement, Monomial, alpha, projection_eF
from affkms.measures import (
    ONE,
    AtomicMeasure,
    dirac,
    epsilon,
    extremal_measure,
    fourier,
    root,
    t_beta,
    t_beta_exact_root,
    tv_distance,
)
from affkms.states import (
    FiniteN,
    FromMeasure,
    LebesgueInf,
    LowTemp,
    QZChar,
    QZMonomial,
    QZSubgroup,
    Quotient,
    QuotientChar,
    _qz_exponent,
    _series_moment,
    apply_kappa,
    coherence_sweep,
    eval_element,
    eval_state,
    h_beta,
    kms_residual,
    kms_sweep,
    limit_beta1,
    qz_coherence,
    reconstruct_check,
    subconformal_witness_value,
    superposition_check,
    weak_star_gap,
    witness_element,
)


def oracle_eval_state(spec, x):
    """eval_state with one value branch per family, each quotient and Q/Z family by its
    own formula and with its point mass built per call: the route the twins replace."""
    if isinstance(spec, (FiniteN, LebesgueInf, FromMeasure, LowTemp)):
        if not isinstance(x, Monomial):
            raise TypeError(f"{type(spec).__name__} expects an integer monomial, got {type(x).__name__}")
        a, k, b = x.a, x.k, x.b
    else:
        if isinstance(x, QZMonomial):
            a, b = x.a, x.b
            k = _qz_exponent(spec, x.x)
        elif isinstance(x, Monomial) and isinstance(spec, (Quotient, QuotientChar)):
            a, k, b = x.a, x.k, x.b
        else:
            raise TypeError(f"{type(spec).__name__} expects a Q/Z monomial, got {type(x).__name__}")

    if a != b:
        return 0j, 0.0 if isinstance(spec, (LowTemp, QuotientChar, QZChar)) else None
    apow = float(a) ** -spec.beta
    if isinstance(spec, FiniteN):
        return complex(apow * h_beta(spec.n // gcd(spec.n, k), spec.beta)), None
    if isinstance(spec, LebesgueInf):
        return complex(apow if k == 0 else 0.0), None
    if isinstance(spec, FromMeasure):
        return apow * fourier(spec.nu, k), None
    if isinstance(spec, Quotient):
        return complex(apow * h_beta(spec.m // gcd(spec.m, k), spec.beta)), None
    if isinstance(spec, QZSubgroup):
        q = x.x.den
        return complex(apow * h_beta(q // gcd(q, spec.m), spec.beta)), None
    if isinstance(spec, LowTemp):
        eta = spec.eta
    else:
        eta = dirac(spec.zeta if isinstance(spec, QuotientChar) else spec.chi)
    val, tail = _series_moment(eta, k, spec.beta)
    return apow * val, apow * tail


def rand_monomial(rng, hi=20, khi=15):
    return Monomial(rng.randint(1, hi), rng.randint(-khi, khi), rng.randint(1, hi))


def subconformal_mixture(beta, weights):
    mix = AtomicMeasure()
    for n, w in weights.items():
        mix = mix.plus(extremal_measure(n, beta).scaled(w))
    return mix


class TestFiniteN:
    def test_index_two_closed_form(self):
        for beta in (1.0, 0.5):
            for a in range(1, 8):
                for k in range(-5, 6):
                    got = eval_state(FiniteN(2, beta), Monomial(a, k, a)).value
                    if k % 2 == 0:
                        expected = a**-beta
                    else:
                        expected = a**-beta * (2 ** (1 - beta) - 1)
                    assert got.real == pytest.approx(expected, abs=1e-13)
                    assert got.imag == 0

    def test_off_diagonal_vanishes_exactly(self):
        assert eval_state(FiniteN(6, 0.8), Monomial(2, 3, 5)).value == 0

    def test_beta_zero_collapse(self):
        # at infinite temperature all finite indices agree: value is delta_{a,b}
        for n in (1, 5, 12):
            assert eval_state(FiniteN(n, 0.0), Monomial(3, 7, 3)).value == 1.0
        assert eval_state(LebesgueInf(0.0), Monomial(3, 7, 3)).value == 0.0
        assert eval_state(LebesgueInf(0.0), Monomial(3, 0, 3)).value == 1.0

    def test_two_path_oracle_against_measure(self):
        rng = random.Random(101)
        for n, beta in ((6, 0.8), (12, 0.5), (9, 1.0), (30, 0.3)):
            spec_a = FiniteN(n, beta)
            spec_b = FromMeasure(extremal_measure(n, beta), beta)
            for _ in range(200):
                m = rand_monomial(rng)
                va = eval_state(spec_a, m).value
                vb = eval_state(spec_b, m).value
                assert abs(va - vb) < 1e-10


class TestLebesgueInf:
    def test_values(self):
        assert eval_state(LebesgueInf(1.0), Monomial(2, 5, 2)).value == 0
        assert eval_state(LebesgueInf(0.7), Monomial(2, 0, 2)).value == pytest.approx(
            2**-0.7
        )


class TestEvalGuards:
    def test_mismatched_monomial_kind(self):
        with pytest.raises(TypeError):
            eval_state(FiniteN(2, 1.0), QZMonomial(1, root(1, 2), 1))
        with pytest.raises(TypeError):
            eval_state(QZSubgroup(4, 2, 0.5), Monomial(1, 1, 1))

    def test_beta_ranges(self):
        with pytest.raises(ValueError):
            FiniteN(2, -0.5)
        with pytest.raises(ValueError):
            LowTemp(dirac(ONE), 1.0)
        with pytest.raises(ValueError):
            Quotient(6, 2, 1.5)
        with pytest.raises(ValueError):
            QuotientChar(6, root(1, 6), 0.9)
        with pytest.raises(ValueError):
            QZSubgroup(6, 4, 0.5)

    @pytest.mark.parametrize("make", [
        lambda beta: FiniteN(6, beta),
        lambda beta: LebesgueInf(beta),
        lambda beta: FromMeasure(dirac(ONE), beta),
        lambda beta: Quotient(6, 2, beta),
        lambda beta: QZSubgroup(12, 4, beta),
    ])
    def test_nan_beta_refused(self, make):
        # NaN fails every comparison, so a range check alone would let it through
        with pytest.raises(ValueError, match=r"requires a finite beta, got nan$"):
            make(math.nan)

    @pytest.mark.parametrize("make", [
        lambda m: Quotient(6, m, 0.5),
        lambda m: QZSubgroup(12, m, 0.5),
        lambda m: coherence_sweep(12, 0.5, 3, random.Random(1), [m]),
    ], ids=["Quotient", "QZSubgroup", "coherence_sweep"])
    @pytest.mark.parametrize("m", [0, -2, -4])
    def test_divisor_index_below_one_refused(self, make, m):
        with pytest.raises(ValueError, match=rf"^divisor index m must be >= 1, got {m}$"):
            make(m)

    @pytest.mark.parametrize("count", [0, -2])
    def test_sweeps_refuse_zero_checks(self, count):
        with pytest.raises(ValueError, match=rf"^pairs must be >= 1, got {count}$"):
            kms_sweep(FiniteN(6, 0.8), count, random.Random(1))
        with pytest.raises(ValueError, match=rf"^count must be >= 1, got {count}$"):
            coherence_sweep(12, 0.5, count, random.Random(1))

    @pytest.mark.parametrize("level", [0, -6])
    def test_sweep_refuses_a_level_below_one(self, level):
        with pytest.raises(ValueError, match=rf"^level must be >= 1, got {level}$"):
            coherence_sweep(level, 0.5, 3, random.Random(1))

    @pytest.mark.parametrize("spec, modulus", [
        (Quotient(6, 2, 0.5), "n = 6"),
        (QuotientChar(6, root(1, 3), 2.0), "n = 6"),
        (QZSubgroup(12, 4, 0.7), "the level 12"),
        (QZChar(12, root(1, 4), 1.5), "the level 12"),
    ], ids=["Quotient", "QuotientChar", "QZSubgroup", "QZChar"])
    def test_point_order_refusal_names_the_modulus(self, spec, modulus):
        with pytest.raises(ValueError, match=rf"^order of 1/8 does not divide {modulus}$"):
            eval_state(spec, QZMonomial(1, root(1, 8), 1))


def _bits(value, tail):
    return value.real.hex(), value.imag.hex(), None if tail is None else tail.hex()


FAMILIES = ("finite", "lebesgue", "measure", "lowtemp", "quotient", "quotient-char", "qz", "qz-char")


@st.composite
def spec_and_monomial(draw, family):
    """A spec of the family at a random modulus L and a monomial; most draws give a
    monomial of a kind the family takes, a = b and a circle point of order dividing L."""
    L = draw(st.integers(1, 360))
    m = draw(st.sampled_from(divisors(L)))

    def circle_point(q):
        return root(draw(st.sampled_from([j for j in range(q) if gcd(j, q) == 1])), q)

    def point_of_order_dividing(n):
        return circle_point(draw(st.sampled_from(divisors(n))))

    low = draw(st.floats(0.0, 1.0))
    high = draw(st.floats(1.05, 4.0))
    if family in ("measure", "lowtemp"):
        count = draw(st.integers(1, 3))
        nu = AtomicMeasure({point_of_order_dividing(L): draw(st.floats(0.05, 1.0)) for _ in range(count)})
    spec = {
        "finite": lambda: FiniteN(L, low),
        "lebesgue": lambda: LebesgueInf(low),
        "measure": lambda: FromMeasure(nu, low),
        "lowtemp": lambda: LowTemp(nu, high),
        "quotient": lambda: Quotient(L, m, low),
        "quotient-char": lambda: QuotientChar(L, point_of_order_dividing(L), high),
        "qz": lambda: QZSubgroup(L, m, low),
        "qz-char": lambda: QZChar(L, point_of_order_dividing(L), high),
    }[family]()
    a = draw(st.integers(1, 6))
    b = draw(st.sampled_from([a, a, a, draw(st.integers(1, 6))]))
    integer = family in FAMILIES[:4]
    if family in ("quotient", "quotient-char"):
        integer = draw(st.booleans())
    elif draw(st.sampled_from([False, False, False, True])):
        integer = not integer  # a kind the family does not take
    if integer:
        return spec, Monomial(a, draw(st.integers(-2 * L, 2 * L)), b)
    q = draw(st.sampled_from([draw(st.sampled_from(divisors(L)))] * 3 + [draw(st.integers(1, 2 * L))]))
    return spec, QZMonomial(a, circle_point(q), b)


class TestTwinRoute:
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_family_oracle_bit_for_bit(self, family, data):
        spec, x = data.draw(spec_and_monomial(family))
        try:
            want = oracle_eval_state(spec, x)
        except (TypeError, ValueError) as err:
            with pytest.raises(type(err)) as got:
                eval_state(spec, x)
            assert str(got.value) == str(err)
            return
        got = eval_state(spec, x)
        assert _bits(got.value, got.tail) == _bits(*want)

    def test_point_mass_built_once_per_spec(self, monkeypatch):
        cases = [
            (QuotientChar(12, root(5, 12), 1.5), Monomial(2, 3, 2)),
            (QuotientChar(12, root(1, 4), 2.0), QZMonomial(1, root(1, 6), 1)),
            (QZChar(12, root(1, 4), 1.5), QZMonomial(1, root(1, 3), 1)),
        ]
        calls = []
        monkeypatch.setattr(states, "dirac", lambda z: calls.append(z) or dirac(z))
        for spec, x in cases:
            first, second = eval_state(spec, x), eval_state(spec, x)
            assert first == second
        assert calls == []

    def test_series_flag_of_elements_follows_the_twin(self):
        e = projection_eF(PrimeSet.of([2]))
        assert eval_element(QuotientChar(6, root(1, 3), 2.0), e).tail is not None
        assert eval_element(Quotient(6, 2, 0.5), e).tail is None
        assert eval_element(QuotientChar(6, root(1, 3), 2.0), AlgebraElement()).tail == 0.0


class TestKMSIdentity:
    @pytest.mark.parametrize(
        "spec",
        [
            FiniteN(6, 0.8),
            LebesgueInf(1.0),
            FromMeasure(
                subconformal_mixture(0.5, {4: 0.35, 9: 0.4, 10: 0.25}), 0.5
            ),
        ],
        ids=["finite", "lebesgue", "measure"],
    )
    def test_random_pairs(self, spec):
        rng = random.Random(7)
        for _ in range(300):
            x, y = rand_monomial(rng), rand_monomial(rng)
            assert kms_residual(spec, x, y) <= 1e-10

    def test_identity_pair(self):
        assert kms_residual(FiniteN(2, 1.0), Monomial(1, 0, 1), Monomial(1, 0, 1)) == 0

    def test_explicit_lebesgue_pair(self):
        assert kms_residual(LebesgueInf(1.0), Monomial(2, 1, 3), Monomial(3, 2, 5)) == 0

    def test_rejects_quotient_family(self):
        with pytest.raises(TypeError):
            kms_residual(Quotient(6, 2, 0.5), Monomial(1, 0, 1), Monomial(1, 0, 1))


class TestPositivity:
    def test_quadratic_forms_nonnegative(self):
        rng = random.Random(13)
        nu = subconformal_mixture(0.6, {6: 0.5, 1: 0.2, 10: 0.3})
        spec = FromMeasure(nu, 0.6)
        for _ in range(100):
            x = AlgebraElement(
                {
                    rand_monomial(rng, hi=8, khi=6): complex(
                        rng.uniform(-1, 1), rng.uniform(-1, 1)
                    )
                    for _ in range(rng.randint(1, 5))
                }
            )
            v = eval_element(spec, x.adjoint() * x).value
            assert v.real >= -1e-9
            assert abs(v.imag) <= 1e-9


class TestProjectionMass:
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda beta: FiniteN(6, beta),
            lambda beta: LebesgueInf(beta),
            lambda beta: FromMeasure(extremal_measure(12, beta), beta),
        ],
        ids=["finite", "lebesgue", "measure"],
    )
    def test_eF_mass(self, make_spec):
        beta = 0.8
        spec = make_spec(beta)
        for F in ([], [2], [3, 5], [2, 3, 5], [2, 3, 5, 7]):
            ps = PrimeSet.of(F)
            got = eval_element(spec, projection_eF(ps)).value
            expected = math.prod(1 - p**-beta for p in F)
            assert got.real == pytest.approx(expected, abs=1e-12)
            assert got.imag == 0

    def test_compression_masses_sum_to_one(self):
        beta, F = 0.9, PrimeSet.of([2, 3])
        spec = FiniteN(4, beta)
        eF = projection_eF(F)
        partial = 0.0
        for a in smooth_numbers(F, 3000):
            partial += eval_element(spec, alpha(a, eF)).value.real
        zf = partial_zeta(F, beta)
        covered = sum(
            a**-beta for a in smooth_numbers(F, 3000)
        ) / zf
        assert partial == pytest.approx(covered, abs=1e-10)
        assert partial == pytest.approx(1.0, abs=1.0 - covered + 1e-10)


class TestWitness:
    def test_extremal_nonnegative_for_divisor_subsets(self):
        nu = extremal_measure(6, 0.7)
        f = {0: 1.0, 1: 0.5, -1: 0.5}
        for F in ([], [2], [3], [5], [2, 3], [2, 5], [3, 5], [2, 3, 5]):
            v = subconformal_witness_value(nu, 0.7, PrimeSet.of(F), f)
            assert v >= -1e-10

    def test_dirac_half_hand_value(self):
        f = {0: 1.0, 1: 0.5, -1: 0.5}
        v = subconformal_witness_value(dirac(root(1, 2)), 1.0, PrimeSet.of([2]), f)
        assert v == pytest.approx(-1.0, abs=1e-12)

    def test_constant_function(self):
        nu = extremal_measure(4, 0.5)
        got = subconformal_witness_value(nu, 0.5, PrimeSet.of([2, 3]), {0: 1.0})
        expected = (1 - 2**-0.5) * (1 - 3**-0.5)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_cross_check_against_algebra_route(self):
        f = {0: 1.0, 1: 0.5, -1: 0.5}
        for nu, beta in ((dirac(root(1, 2)), 1.0), (extremal_measure(6, 0.7), 0.7)):
            for F in ([2], [2, 3]):
                ps = PrimeSet.of(F)
                direct = subconformal_witness_value(nu, beta, ps, f)
                elem = witness_element(ps, f)
                via_algebra = eval_element(FromMeasure(nu, beta), elem).value
                assert direct == pytest.approx(via_algebra.real, abs=1e-10)
                assert abs(via_algebra.imag) < 1e-10

    def test_rejects_sign_indefinite_f(self):
        with pytest.raises(ValueError):
            subconformal_witness_value(
                dirac(ONE), 1.0, PrimeSet.of([2]), {1: 0.5, -1: 0.5}
            )
        with pytest.raises(ValueError):
            subconformal_witness_value(dirac(ONE), 1.0, PrimeSet.of([2]), {1: 1.0})


class TestKappa:
    def test_identity(self):
        rng = random.Random(17)
        for _ in range(30):
            x = rand_monomial(rng)
            assert apply_kappa(1, x) == x

    def test_semigroup_law(self):
        rng = random.Random(19)
        for _ in range(50):
            x = rand_monomial(rng)
            assert apply_kappa(2, apply_kappa(3, x)) == apply_kappa(6, x)

    def test_lowering_action_on_states(self):
        rng = random.Random(23)
        beta = 0.7
        for _ in range(200):
            n, b = rng.randint(1, 30), rng.randint(1, 30)
            x = rand_monomial(rng)
            lhs = eval_state(FiniteN(n, beta), apply_kappa(b, x)).value
            rhs = eval_state(FiniteN(n // gcd(n, b), beta), x).value
            assert abs(lhs - rhs) < 1e-12

    def test_zero_collapses_to_index_one(self):
        rng = random.Random(29)
        beta = 0.9
        for n in (2, 6, 30):
            for _ in range(20):
                x = rand_monomial(rng)
                lhs = eval_state(FiniteN(n, beta), apply_kappa(0, x)).value
                rhs = eval_state(FiniteN(1, beta), x).value
                assert abs(lhs - rhs) < 1e-12


class TestWeakStarGap:
    def test_gap_below_bound(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 1000)
            x = rand_monomial(rng)
            gap, bound = weak_star_gap(1.0, n, x)
            assert gap <= bound + 1e-15

    def test_k_zero_gap_vanishes(self):
        gap, _ = weak_star_gap(0.8, 12, Monomial(3, 0, 3))
        assert gap == 0.0

    def test_large_prime_example(self):
        gap, bound = weak_star_gap(1.0, 997, Monomial(1, 1, 1))
        assert gap < 0.002
        assert bound == pytest.approx(1 / 997)

    def test_dyadic_monotone(self):
        gaps = [weak_star_gap(1.0, 2**j, Monomial(1, 1, 1))[0] for j in range(13)]
        assert all(g1 >= g2 - 1e-15 for g1, g2 in zip(gaps, gaps[1:]))


class TestReconstruct:
    def test_k_zero_both_sides_one(self):
        lhs, rhs, tail = reconstruct_check(FiniteN(4, 0.9), PrimeSet.of([2, 3]), 0, 10_000)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        # at k = 0 the residual saturates the bound exactly; allow roundoff
        assert abs(lhs - rhs) <= tail + 1e-12

    def test_finite_state_within_tail(self):
        for k in (1, 2, 3):
            lhs, rhs, tail = reconstruct_check(
                FiniteN(4, 0.9), PrimeSet.of([2, 3]), k, 10_000
            )
            assert abs(lhs - rhs) <= tail

    def test_measure_state_within_tail(self):
        nu = epsilon(4).scaled(0.5).plus(epsilon(3).scaled(0.5))
        mix = AtomicMeasure(nu.atoms())
        spec = FromMeasure(
            subconformal_mixture(0.8, {4: 0.5, 3: 0.5}), 0.8
        )
        lhs, rhs, tail = reconstruct_check(spec, PrimeSet.of([2, 3]), 2, 5000)
        assert abs(lhs - rhs) <= tail


class TestBetaLimit:
    def test_point_at_one_distance_zero(self):
        rows = limit_beta1(ONE, [1.5, 1.1, 1.01])
        assert all(dist < 1e-12 for _, dist in rows)

    def test_quarter_trend(self):
        betas = [1 + 10.0**-j for j in range(1, 5)]
        rows = limit_beta1(root(1, 4), betas)
        dists = [d for _, d in rows]
        assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))

    @pytest.mark.parametrize("n", [4, 12, 97, 360])
    def test_class_sums_match_the_measure_route(self, n):
        # the same n terms |w[r] / sum(w) - 1/n|, added in r order and in (den, num) order
        z = root(1, n)
        uniform = AtomicMeasure({z.pow(k): 1.0 / n for k in range(n)})
        betas = [1.5, 1.01, 1.0001]
        for beta, dist in limit_beta1(z, betas):
            via_measures = tv_distance(t_beta_exact_root(z, beta), uniform)
            assert abs(dist - via_measures) <= n * 2.0**-53 * dist

    def test_huge_order_refused_before_any_atom_is_built(self):
        with pytest.raises(RangeError, match=r"limit_beta1 at order 999999937 needs"):
            limit_beta1(root(1, 999999937), [1.1])

    def test_no_betas_refused(self):
        # a trend over no rows would pass its monotonicity check vacuously
        with pytest.raises(ValueError, match=r"^limit_beta1 requires at least one beta, got \[\]$"):
            limit_beta1(root(1, 4), [])


class TestSuperposition:
    def test_single_point_index(self):
        dev, tail = superposition_check(1, 2.0)
        assert dev <= tail

    def test_index_four(self):
        dev, tail = superposition_check(4, 2.0)
        assert dev <= tail

    def test_index_six_closer_to_critical(self):
        dev, tail = superposition_check(6, 1.5)
        assert dev <= tail + 1e-12  # allow roundoff


class TestQuotientStates:
    def test_full_subgroup_gives_rescaled_delta(self):
        spec = QZSubgroup(12, 12, 0.7)
        for q in (1, 2, 3, 4, 6, 12):
            x = QZMonomial(3, root(1, q) if q > 1 else ONE, 3)
            got = eval_state(spec, x).value
            assert got == pytest.approx(3**-0.7, abs=1e-12)

    def test_trivial_subgroup_matches_finite_index(self):
        # H = 0 level state at x of order q agrees with the integer-monoid
        # state of index q evaluated at U^1
        beta = 0.6
        for q in (2, 3, 4, 6, 12):
            x = QZMonomial(2, root(1, q), 2)
            got = eval_state(QZSubgroup(12, 1, beta), x).value
            want = eval_state(FiniteN(q, beta), Monomial(2, 1, 2)).value
            assert abs(got - want) < 1e-12

    def test_coherence_random_triples(self):
        rng = random.Random(37)
        for _ in range(200):
            N = rng.randint(1, 24)
            m = rng.choice(divisors(N))
            n = rng.choice(divisors(N))
            q = rng.choice(divisors(n))
            num = rng.choice([j for j in range(q) if gcd(j, q) == 1])
            x = QZMonomial(rng.randint(1, 10), root(num, q), rng.randint(1, 10))
            lhs, rhs = qz_coherence(N, m, n, 0.7, x)
            assert abs(lhs - rhs) < 1e-12

    def test_sweep_refuses_a_beta_above_one_before_any_check(self):
        with pytest.raises(ValueError, match="QZSubgroup requires 0 <= beta <= 1"):
            coherence_sweep(12, 1.5, 0, random.Random(1))

    def test_quotient_char_matches_low_temp_on_integer_monomials(self):
        # the modulus-n character state at zeta agrees with the point-mass
        # low-temperature series of the same root
        beta = 2.0
        z = root(1, 6)
        char_spec = QuotientChar(6, z, beta)
        low_spec = LowTemp(dirac(z), beta)
        for k in range(-3, 4):
            for a in (1, 2, 5):
                v1 = eval_state(char_spec, Monomial(a, k, a))
                v2 = eval_state(low_spec, Monomial(a, k, a))
                assert abs(v1.value - v2.value) < 1e-12
                assert v1.tail == pytest.approx(v2.tail, rel=1e-9)

    def test_qz_char_consistent_with_quotient_char(self):
        beta = 1.8
        chi = root(1, 12)  # character with chi(1/12) = e^(2 pi i /12)
        spec = QZChar(12, chi, beta)
        x = QZMonomial(2, root(1, 4), 2)  # = R^3 at level 12
        got = eval_state(spec, x)
        want = eval_state(QuotientChar(12, chi, beta), Monomial(2, 3, 2))
        assert abs(got.value - want.value) < 1e-14

    def test_gauge_invariance_all_specs(self):
        specs = [
            FiniteN(6, 0.5),
            LebesgueInf(0.5),
            FromMeasure(extremal_measure(4, 0.5), 0.5),
            LowTemp(dirac(ONE), 1.5),
        ]
        for spec in specs:
            assert eval_state(spec, Monomial(2, 1, 3)).value == 0
        qz_specs = [
            Quotient(6, 3, 0.5),
            QuotientChar(6, root(1, 6), 1.5),
            QZSubgroup(6, 2, 0.5),
            QZChar(6, root(1, 6), 1.5),
        ]
        for spec in qz_specs:
            assert eval_state(spec, QZMonomial(2, root(1, 6), 3)).value == 0


class TestLowTempSeries:
    def test_tail_reported_and_valid(self):
        # the exact series against the moment of the truncated image, whose
        # missing mass is at most its tail
        sv = eval_state(LowTemp(epsilon(4), 1.5), Monomial(2, 1, 2))
        assert isinstance(sv.tail, float)
        image, tail = t_beta(epsilon(4), 1.5, 200_000)
        apow = 2**-1.5
        assert abs(sv.value - apow * fourier(image, 1)) <= apow * tail + sv.tail + 1e-12

    def test_series_families_match_mpmath(self):
        # value = a^-beta sum_r W_r moment(k r), W_r = q^-beta zeta(beta, r/q) / zeta(beta)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def series(atoms, beta, k):
            q = 1
            for z in atoms:
                q = q * z.den // gcd(q, z.den)
            total = 0
            for r in range(q):
                w = mpmath.zeta(beta, mpmath.mpf(r) / q if r else 1) * mpmath.mpf(q) ** -beta
                total += w * sum(c * mpmath.expjpi(2 * mpmath.mpf(k * r * z.num) / z.den)
                                 for z, c in atoms.items())
            return complex(total / mpmath.zeta(beta))

        eta = {root(1, 4): 0.5, root(2, 3): 0.3, ONE: 0.2}
        for beta in (1 + 1e-6, 1.5, 3.0):
            for a, k in ((1, 0), (1, 1), (2, 5), (3, -2)):
                want = a**-beta * series(eta, beta, k)
                sv = eval_state(LowTemp(AtomicMeasure(eta), beta), Monomial(a, k, a))
                assert abs(sv.value - want) <= sv.tail + 1e-12
                assert sv.tail < 1e-12
                xi = root(5, 12)
                want = a**-beta * series({xi: 1.0}, beta, k)
                sv = eval_state(QuotientChar(12, xi, beta), Monomial(a, k, a))
                assert abs(sv.value - want) <= sv.tail + 1e-12
                sv = eval_state(QZChar(12, xi, beta), QZMonomial(a, root(k, 12), a))
                assert abs(sv.value - want) <= sv.tail + 1e-12

    def test_constant_term(self):
        # k = 0 gives a^-beta times the mass of the base measure
        sv = eval_state(LowTemp(dirac(ONE), 2.0), Monomial(3, 0, 3))
        assert sv.value.real == pytest.approx(3**-2.0, abs=sv.tail + 1e-12)
