import json
import math
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkms import arith, measures
from affkms.arith import (
    ARRAY_BYTES_LIMIT,
    PrimeSet,
    RangeError,
    divisors,
    factorize,
    mobius,
    primes_up_to,
    squarefree_products,
    totient,
    totient_beta,
    zeta,
)
from affkms.measures import (
    ATOM_ARRAY_BYTES,
    PUSH_BYTES,
    T_BETA_ROOT_BYTES,
    T_BETA_TERM_BYTES,
    ONE,
    AtomicMeasure,
    NotOrbitInvariantError,
    NotSubconformalError,
    RootOfUnity,
    SubconformalVerdict,
    apply_A,
    apply_A_inv,
    check_subconformal,
    decompose,
    dirac,
    epsilon,
    extremal_measure,
    fourier,
    max_atom_diff,
    measure_from_dict,
    measure_to_dict,
    moments,
    pushforward,
    restrict,
    root,
    t_beta,
    t_beta_exact_root,
    tv_distance,
)


# --- the dict kernels that measures._push replaced, kept as oracles ---------


def dict_pushforward(nu, d):
    """Image of nu under z -> z^d, one RootOfUnity.pow per atom."""
    acc: dict[RootOfUnity, float] = {}
    for z, w in nu.atoms().items():
        t = z.pow(d)
        acc[t] = acc.get(t, 0.0) + w
    return AtomicMeasure(acc, signed=nu.signed)


def mobius_apply_A(nu, n, beta):
    """A_{beta,n} nu as the Moebius sum of 2^omega(n) dict pushforwards."""
    acc: dict[RootOfUnity, float] = {}
    for d in squarefree_products(PrimeSet.dividing(n)):
        c = mobius(d) * float(d) ** -beta
        for z, w in dict_pushforward(nu, d).atoms().items():
            acc[z] = acc.get(z, 0.0) + c * w
    return AtomicMeasure(acc, signed=True)


def dict_t_beta(nu, beta, C):
    """T_beta truncated at C: one dict pushforward per residue class mod K."""
    K = nu.support_level()
    z_full = zeta(beta)
    vals = np.arange(1, C + 1, dtype=np.float64) ** -beta
    partial = float(np.sum(vals))
    # z^c depends on c only through c mod K; fold exponent 0 onto K
    residues = (np.arange(1, C + 1) - 1) % K + 1
    by_res = np.bincount(residues, weights=vals, minlength=K + 1)
    acc: dict[RootOfUnity, float] = {}
    for r in range(1, K + 1):
        wr = float(by_res[r]) / z_full
        if wr == 0.0:
            continue
        for z, w in dict_pushforward(nu, r).atoms().items():
            acc[z] = acc.get(z, 0.0) + wr * w
    tail = (z_full - partial) / z_full
    return AtomicMeasure(acc, signed=nu.signed), tail


def rand_signed_measure(rng, level=24, n_atoms=6):
    atoms = {}
    for _ in range(n_atoms):
        den = rng.choice([d for d in range(1, level + 1) if level % d == 0])
        num = rng.choice([j for j in range(den) if gcd(j, den) == 1])
        atoms[RootOfUnity(num, den)] = rng.uniform(-1, 1)
    return AtomicMeasure(atoms, signed=True)


# --- the dict representation that the atom arrays replaced, kept as the oracle ---


class DictMeasure:
    """The former AtomicMeasure: a dict of RootOfUnity keys in insertion order."""

    def __init__(self, atoms=(), *, signed=False, level=None):
        acc: dict[RootOfUnity, float] = {}
        for z, w in atoms.items() if isinstance(atoms, dict) else atoms:
            acc[z] = acc.get(z, 0.0) + w
        acc = {z: w for z, w in acc.items() if w != 0.0}
        if level is not None and (level < 1 or any(level % z.den for z in acc)):
            raise ValueError(f"atoms do not live on the level-{level} roots")
        self._atoms, self.signed, self._level = acc, signed, level

    def atoms(self):
        return dict(self._atoms)

    def weight(self, z):
        return self._atoms.get(z, 0.0)

    def mass(self):
        return sum(self._atoms.values())

    def min_weight(self):
        return min(self._atoms.values(), default=0.0)

    def support_level(self):
        return self._level or math.lcm(1, *(z.den for z in self._atoms))

    def scaled(self, c):
        return DictMeasure({z: c * w for z, w in self._atoms.items()},
                           signed=self.signed or c < 0, level=self._level)

    def plus(self, other):
        acc = self.atoms()
        for z, w in other._atoms.items():
            acc[z] = acc.get(z, 0.0) + w
        return DictMeasure(acc, signed=self.signed or other.signed)

    def __len__(self):
        return len(self._atoms)


def in_order(roots):
    """Roots in (den, num) order, the order the atom arrays keep."""
    return sorted(roots, key=lambda z: (z.den, z.num))


def dict_tv_distance(mu, nu):
    """sum |mu - nu| over the union of the atoms, added in (den, num) order."""
    return sum(abs(mu.weight(z) - nu.weight(z)) for z in in_order(set(mu.atoms()) | set(nu.atoms())))


def dict_max_atom_diff(mu, nu):
    keys = set(mu.atoms()) | set(nu.atoms())
    return max((abs(mu.weight(z) - nu.weight(z)) for z in keys), default=0.0)


def dict_restrict(nu, k):
    return DictMeasure({z: w for z, w in nu.atoms().items() if k % z.den == 0}, signed=nu.signed)


def dict_fourier(nu, k):
    re = im = 0.0
    for z, w in nu.atoms().items():
        theta = 2.0 * math.pi * ((k * z.num) % z.den) / z.den
        re += w * math.cos(theta)
        im += w * math.sin(theta)
    return complex(re, im)


def dict_measure_to_dict(nu):
    atoms = [(z, nu.weight(z)) for z in in_order(nu.atoms())]
    return {"level": nu.support_level(), "signed": nu.signed,
            "atoms": [{"num": z.num, "den": z.den, "weight": w} for z, w in atoms]}


def dict_decompose(nu, beta, tol=1e-9):
    """decompose over a dict of atoms, one root at a time."""
    L = nu.support_level()
    primitive_mass: dict[int, float] = {}
    by_order: dict[int, list[RootOfUnity]] = {}
    for z, w in nu.atoms().items():
        primitive_mass[z.den] = primitive_mass.get(z.den, 0.0) + w
        by_order.setdefault(z.den, []).append(z)
    shares = {d: m / totient(d) for d, m in primitive_mass.items()}
    deviations = []
    for d, zs in by_order.items():
        devs = [(z.num, abs(nu.weight(z) - shares[d])) for z in zs]
        if len(zs) < totient(d):
            nums = {z.num for z in zs}
            devs.append((next(j for j in range(d) if gcd(j, d) == 1 and j not in nums), abs(shares[d])))
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
        raise NotSubconformalError(out, min(bad, key=lambda n: out[n]))
    return out


WEIGHTS = st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.sampled_from([0.25, -0.25, 5e-324, 1e-300]))


@st.composite
def atom_lists(draw, weights=WEIGHTS, levels=None):
    """Pairs (root, weight) on the K-th roots in (den, num) order, with repeated roots and
    zero weights; a stable sort keeps the given order of a repeated root's weights."""
    K = draw(LEVELS if levels is None else levels)
    pool = draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), weights), max_size=12))
    return sorted(((root(j, K), w) for j, w in pairs), key=lambda p: (p[0].den, p[0].num))


def same(got, want):
    """Equal to the last bit, the sign of zero included."""
    return repr(got) == repr(want)


def items(nu):
    return [(z, repr(w)) for z, w in nu.atoms().items()]


def outcome(decompose_fn, nu, beta):
    try:
        return "coefficients", {n: repr(c) for n, c in decompose_fn(nu, beta).items()}
    except NotOrbitInvariantError as err:
        return "orbit", err.atom, repr(err.weight), repr(err.expected)
    except NotSubconformalError as err:
        return "negative", err.witness_n, {n: repr(c) for n, c in err.coefficients.items()}


class TestArraysAgainstDictOracle:
    """The atom arrays against the dict measure, bit for bit, on atoms given in (den, num) order."""

    @settings(max_examples=300, deadline=None)
    @given(atom_lists(), atom_lists(), st.floats(-2.0, 2.0), st.integers(1, 800),
           st.one_of(st.integers(-1000, 1000), st.integers(2**62, 2**70)))
    def test_operations(self, a, b, c, k, moment):
        A, B = AtomicMeasure(a, signed=True), AtomicMeasure(b, signed=True)
        DA, DB = DictMeasure(a, signed=True), DictMeasure(b, signed=True)
        assert items(A) == items(DA)
        assert len(A) == len(DA)
        assert same(A.mass(), DA.mass()) and same(A.min_weight(), DA.min_weight())
        assert same(A.variation(), sum(abs(w) for w in DA.atoms().values()))
        assert A.support_level() == DA.support_level()
        assert all(same(A.weight(z), DA.weight(z)) for z, _ in a + b)
        assert items(A.scaled(c)) == items(DA.scaled(c))
        assert dict(items(A.plus(B))) == dict(items(DA.plus(DB)))
        assert items(restrict(A, k)) == items(dict_restrict(DA, k))
        assert same(fourier(A, moment), dict_fourier(DA, moment))
        assert same(tv_distance(A, B), dict_tv_distance(DA, DB))
        assert same(max_atom_diff(A, B), dict_max_atom_diff(DA, DB))

    def test_moments_of_many_exponents(self):
        rng = random.Random(41)
        pairs = sorted(((root(rng.randrange(997), 997), rng.uniform(-1, 1)) for _ in range(300)),
                       key=lambda p: (p[0].den, p[0].num))
        ks = list(range(-250, 250))
        oracle = DictMeasure(pairs)
        got = moments(AtomicMeasure(pairs, signed=True), ks)
        assert all(same(m, dict_fourier(oracle, k)) for m, k in zip(got, ks, strict=True))

    @settings(max_examples=200, deadline=None)
    @given(atom_lists(), st.booleans())
    def test_json_schema_round_trip(self, a, signed):
        nu = AtomicMeasure(a, signed=signed)
        doc = measure_to_dict(nu)
        assert doc == dict_measure_to_dict(DictMeasure(a, signed=signed))
        back = measure_from_dict(json.loads(json.dumps(doc, sort_keys=True)))
        assert (items(back), back.signed, back.support_level()) == (items(nu), signed, doc["level"])

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 5, 12, 30, 60]), st.sampled_from([0.3, 0.7, 1.0]), st.booleans(),
           st.data())
    def test_decompose(self, L, beta, invariant, data):
        if invariant:
            pairs = list(orbit_invariant_mixture(data, L, beta).atoms().items())
        else:
            # few distinct weights, so that ties between deviations are common
            weights = st.sampled_from([0.05, 0.1, 0.25])
            pairs = data.draw(atom_lists(weights, st.just(L)))
        nu = AtomicMeasure(pairs)
        assert outcome(decompose, nu, beta) == outcome(dict_decompose, DictMeasure(pairs), beta)


class TestRootOfUnity:
    def test_reduction(self):
        assert root(8, 12) == RootOfUnity(2, 3)
        assert root(-1, 4) == RootOfUnity(3, 4)
        assert root(5, 5) == ONE

    def test_invalid_direct_construction(self):
        with pytest.raises(ValueError):
            RootOfUnity(2, 4)
        with pytest.raises(ValueError):
            RootOfUnity(3, 3)

    def test_order_and_pow(self):
        z = root(1, 6)
        assert z.order == 6
        assert z.pow(4) == RootOfUnity(2, 3)


class TestPushforward:
    def test_primitive_uniform_wraps_down(self):
        # wrapping the order-12 uniform primitive measure 8 times lands on order 3
        got = pushforward(epsilon(12), 8)
        assert max_atom_diff(got, epsilon(12 // gcd(12, 8))) < 1e-15

    def test_dirac_half(self):
        assert max_atom_diff(pushforward(dirac(root(1, 2)), 2), dirac(ONE)) == 0.0

    def test_mass_preserved_on_signed_measures(self):
        rng = random.Random(2)
        for _ in range(25):
            nu = rand_signed_measure(rng)
            for d in (1, 2, 5, 12):
                assert pushforward(nu, d).mass() == pytest.approx(nu.mass(), abs=1e-12)

    def test_rejects_nonpositive_wrap(self):
        with pytest.raises(ValueError):
            pushforward(dirac(ONE), 0)


class TestEpsilon:
    def test_order_one_is_point_mass_at_one(self):
        assert max_atom_diff(epsilon(1), dirac(ONE)) == 0.0

    def test_order_four(self):
        expected = AtomicMeasure({root(1, 4): 0.5, root(3, 4): 0.5})
        assert max_atom_diff(epsilon(4), expected) == 0.0

    def test_support_size_is_totient(self):
        for n in range(1, 201):
            assert len(epsilon(n)) == totient(n)


class TestApplyA:
    def test_trivial_index(self):
        rng = random.Random(3)
        nu = rand_signed_measure(rng)
        assert max_atom_diff(apply_A(nu, 1, 0.7), nu) == 0.0

    def test_hand_example_at_half(self):
        got = apply_A(dirac(root(1, 2)), 2, 1.0)
        expected = AtomicMeasure({root(1, 2): 1.0, ONE: -0.5}, signed=True)
        assert max_atom_diff(got, expected) < 1e-15

    def test_coprime_multiplicativity(self):
        rng = random.Random(5)
        for _ in range(20):
            nu = rand_signed_measure(rng, level=30)
            beta = rng.uniform(0.2, 1.5)
            two_then_three = apply_A(apply_A(nu, 3, beta), 2, beta)
            assert max_atom_diff(two_then_three, apply_A(nu, 6, beta)) < 1e-12

    def test_mass_bookkeeping(self):
        # total mass scales by sum_{d|n} mu(d) d^-beta
        rng = random.Random(7)
        nu = rand_signed_measure(rng)
        for n, beta in ((6, 0.5), (12, 1.0), (30, 0.8)):
            scale = sum(
                m * d**-beta
                for d, m in ((1, 1), (2, -1), (3, -1), (5, -1), (6, 1), (10, 1), (15, 1), (30, -1))
                if n % d == 0
            )
            assert apply_A(nu, n, beta).mass() == pytest.approx(scale * nu.mass(), abs=1e-12)


class TestApplyAInv:
    def test_roundtrip(self):
        rng = random.Random(11)
        for n in (2, 6, 12, 30):
            nu = rand_signed_measure(rng, level=n)
            beta = rng.uniform(0.3, 1.2)
            inv = apply_A_inv(nu, n, beta)
            assert max_atom_diff(apply_A(inv, n, beta), nu) < 1e-10

    def test_normalized_inverse_is_extremal_measure(self):
        n, beta = 6, 0.7
        scale = math.prod(1 - p**-beta for p in (2, 3))
        got = apply_A_inv(epsilon(n), n, beta).scaled(scale)
        assert max_atom_diff(got, extremal_measure(n, beta)) < 1e-10

    def test_positivity_of_inverse(self):
        rng = random.Random(13)
        for n in range(2, 31):
            atoms = {
                root(j, n): rng.uniform(0, 1) for j in range(n)
            }
            nu = AtomicMeasure(atoms)
            inv = apply_A_inv(nu, n, 0.6, level=n)
            assert inv.min_weight() >= -1e-12

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_A_inv(dirac(root(1, 3)), 2, 0.5, level=4)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_A_inv(epsilon(2), 2, 0.0)

    def test_atom_guard_refuses_over_the_limit(self):
        # K output atoms and five 8-byte words per root are charged before allocating
        assert apply_A_inv(epsilon(1), 1, 0.5, level=4097).atoms() == {ONE: 1.0}
        k_max = ARRAY_BYTES_LIMIT // (ATOM_ARRAY_BYTES + 40)
        assert apply_A_inv(epsilon(1), 1, 0.5, level=k_max).atoms() == {ONE: 1.0}
        with pytest.raises(RangeError, match=rf"K = {k_max + 1} needs 128 MiB, over the 128 MiB"):
            apply_A_inv(epsilon(1), 1, 0.5, level=k_max + 1)

    def test_beta_so_small_that_p_pow_minus_beta_rounds_to_one_rejected(self):
        with pytest.raises(ValueError, match="2\\^-beta rounds to 1"):
            apply_A_inv(epsilon(6), 6, 1e-17)

    @pytest.mark.parametrize("beta", [0.0009, 0.001, 0.0011])
    def test_tiny_beta_matches_the_closed_form(self, beta):
        # |mu|_1 is about 4e11 here: the residual of about 1e-7 is 1e-20 of the bound's scale
        assert max_atom_diff(normalized_inverse(840, beta), extremal_measure(840, beta)) <= 1e-13

    def test_residual_guard_refuses_a_lossy_solve(self, monkeypatch):
        # the first push of the solve drops half its mass; the check's pushes are exact
        push, calls = measures._push, []

        def lossy(src, d, out):
            push(src, d, out)
            if not calls:
                out *= 0.5
            calls.append(d)

        monkeypatch.setattr(measures, "_push", lossy)
        with pytest.raises(RuntimeError, match=r"A_inv solve residual .* exceeds"):
            apply_A_inv(epsilon(840), 840, 0.7, level=840)


def dense_A_inv(nu, n, beta, K):
    """The former dense route: solve the K x K system of A_{beta,n} on the K-th roots."""
    rhs = measures._level_vector(nu, K)
    M = np.zeros((K, K))
    cols = np.arange(K)
    for d in squarefree_products(PrimeSet.dividing(n)):
        M[(cols * d) % K, cols] += mobius(d) * float(d) ** -beta
    return np.linalg.solve(M, rhs)


def solve_factor_exactly(x, p, c, K):
    """The mu with mu = x + c P mu, P the push j -> j p mod K, in exact rationals.

    The nodes off the cycles of j -> j p are settled leaves first.  On a cycle
    k_0 -> k_1 -> ... -> k_(L-1) -> k_0 with y the value fed in from off it,
    mu(k_i) = y(k_i) + c mu(k_(i-1)), so mu(k_0) = sum_t c^t y(k_-t) / (1 - c^L).
    """
    f = [j * p % K for j in range(K)]
    indegree = [0] * K
    for k in f:
        indegree[k] += 1
    fed = [Fraction(0)] * K
    mu: list[Fraction | None] = [None] * K
    leaves = [j for j in range(K) if indegree[j] == 0]
    while leaves:
        j = leaves.pop()
        mu[j] = x[j] + c * fed[j]
        k = f[j]
        fed[k] += mu[j]
        indegree[k] -= 1
        if indegree[k] == 0:
            leaves.append(k)
    for k0 in range(K):
        if mu[k0] is not None:
            continue
        cycle = [k0]
        while f[cycle[-1]] != k0:
            cycle.append(f[cycle[-1]])
        y = [x[k] + c * fed[k] for k in cycle]
        h = Fraction(0)
        for v in y[1:]:
            h = v + c * h
        m = (y[0] + c * h) / (1 - c ** len(cycle))
        for k, v in zip(cycle, y):
            if k != k0:
                m = v + c * m
            mu[k] = m
    return mu


def exact_A_inv(nu, n, beta, K):
    """A_{beta,n}^-1 nu on the K-th roots in exact rationals: the float weights of nu and
    the floats p^-beta as Fractions, one factor (I - p^-beta P_p) at a time."""
    mu = [Fraction(w) for w in measures._level_vector(nu, K).tolist()]
    for p in PrimeSet.dividing(n):
        mu = solve_factor_exactly(mu, p, Fraction(float(p) ** -beta), K)
    return mu


def inverse_rounding_allowance(nu, n, beta, K):
    """A bound on |apply_A_inv(nu) - exact_A_inv(nu)| in every atom, as a Fraction.

    Every intermediate of apply_A_inv is a positive combination of pushes of nu
    whose coefficients sum to at most G = prod_p 1/(1 - c_p), so it weighs at
    most M = G |nu|_1 and each rounding errs by at most half a spacing ulp(M).
    Per root and Neumann step a push's sums, the product and the addition round;
    below 2^-1021 sums of multiples of 2^-1074 are exact and only the product
    does.  Later steps grow an error by at most G in l1.  Each squared
    coefficient c^(2^i) is off by at most 2^i 2^-53 of itself, and
    sum_i 2^i c^(2^i) <= 2 / (1 - c); the dropped tail of each factor weighs at
    most 2^-60 M.
    """
    cs = [float(p) ** -beta for p in PrimeSet.dividing(n)]
    G = math.prod(Fraction(1) / (1 - Fraction(c)) for c in cs)
    M = G * sum(Fraction(abs(w)) for w in nu.atoms().values())
    steps = 0
    for c in cs:
        stop = 2.0**-60 * (1.0 - c)
        while c > stop:
            steps += 1
            c *= c
    per_root = 1 if M < Fraction(2) ** -1021 else 3
    half_ulp = Fraction(math.ulp(float(M) * (1 + 2**-40))) / 2
    coefficients = sum(Fraction(2) ** -52 / (1 - Fraction(c)) for c in cs) * M
    tail = len(cs) * Fraction(2) ** -60 * M
    return G * (steps * K * per_root * half_ulp + coefficients + tail)


def normalized_inverse(n, beta):
    scale = math.prod(1 - p**-beta for p in PrimeSet.dividing(n))
    return apply_A_inv(epsilon(n), n, beta, level=n).scaled(scale)


class TestPushKernel:
    """measures._push on level-K arrays against the dict pushforward oracle."""

    @pytest.mark.parametrize("K", [1, 12, 30, 97, 360])
    def test_matches_dict_pushforward(self, K):
        rng = random.Random(K)
        nu = AtomicMeasure({root(j, K): rng.uniform(-1, 1) for j in range(K)}, signed=True)
        src = measures._level_vector(nu, K)[None]
        gcd_between = [d for d in range(2, 4 * K) if 1 < gcd(d, K) < d]
        for d in {K, 2 * K + 1, 5 * K + 7, *divisors(K), *gcd_between[:6]}:
            out = np.full_like(src, np.nan)
            measures._push(src, d, out)
            want = measures._level_vector(dict_pushforward(nu, d), K)
            assert np.max(np.abs(out[0] - want)) <= 1e-15 * K

    def test_exponent_zero_sends_everything_to_one(self):
        src = np.arange(24.0).reshape(2, 12)
        out = np.full_like(src, np.nan)
        measures._push(src, 0, out)
        assert out[:, 0].tolist() == [66.0, 210.0]
        assert not out[:, 1:].any()


LEVELS = st.one_of(st.integers(1, 720), st.sampled_from(primes_up_to(720)))


@st.composite
def sparse_measures(draw, K):
    """Up to 8 atoms on the K-th roots, signed or not, with or without a declared level K."""
    signed = draw(st.booleans())
    js = draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=8, unique=True))
    ws = draw(st.lists(st.floats(-1.0 if signed else 0.0, 1.0), min_size=len(js),
                       max_size=len(js)))
    level = draw(st.sampled_from([K, None]))
    return AtomicMeasure({root(j, K): w for j, w in zip(js, ws)}, signed=signed, level=level)


def l1(nu):
    return sum(abs(w) for w in nu.atoms().values())


def assert_atoms_agree(got, want, nu, products, terms=0):
    """Every atom within 1e-15 |nu|_1, or terms * 2^-53 |nu|_1 where an atom gathers so
    many terms that their roundings can add up to more.

    A product that lands below the normal range is rounded to a multiple of
    2^-1074, an absolute error of up to 2^-1075 that no relative bound covers;
    products counts such roundings (both routes) that can reach one atom.
    Sums of such multiples stay exact below 2^-1021.
    """
    rel = max(1e-15, terms * 2.0**-53)
    assert max_atom_diff(got, want) <= rel * l1(nu) + (products + 1) // 2 * 2.0**-1074


class TestKernelsAgainstDictOracles:
    """pushforward, apply_A and t_beta on the push kernel against the dict kernels."""

    @settings(max_examples=200, deadline=None)
    @given(LEVELS, st.data())
    def test_pushforward(self, K, data):
        nu = data.draw(sparse_measures(K))
        d = data.draw(st.integers(1, 2 * K))
        got = pushforward(nu, d)
        assert got.signed == nu.signed
        assert_atoms_agree(got, dict_pushforward(nu, d), nu, products=0)

    @settings(max_examples=200, deadline=None)
    @given(LEVELS, st.floats(0.05, 2.0), st.data())
    def test_apply_A(self, K, beta, data):
        nu = data.draw(sparse_measures(K))
        n = data.draw(st.sampled_from(divisors(K)))
        got = apply_A(nu, n, beta)
        assert got.signed
        # the Moebius sum rounds 2^omega products per atom; each of the omega factors
        # rounds K, and the later factors (l1 norm at most 2) spread them over the atoms
        omega = len(PrimeSet.dividing(n))
        products = 2**omega * (len(nu) + omega * K)
        assert_atoms_agree(got, mobius_apply_A(nu, n, beta), nu, products)

    @settings(max_examples=100, deadline=None)
    @given(LEVELS, st.floats(1.05, 3.0), st.integers(1, 2000), st.data())
    def test_t_beta(self, K, beta, C, data):
        nu = data.draw(sparse_measures(K))
        got, tail = t_beta(nu, beta, C)
        want, want_tail = dict_t_beta(nu, beta, C)
        assert tail == want_tail
        assert got.signed == nu.signed
        # one atom gathers up to K class sums: the dict route adds them one by one,
        # (K - 1) roundings of at most 2^-53 |nu|_1 each, and the push route sums a
        # push's g <= K entries and then at most 8 pushes
        assert_atoms_agree(got, want, nu, products=2 * K, terms=2 * K + 8)

    @settings(max_examples=100, deadline=None)
    @given(LEVELS, st.floats(0.3, 2.0), st.data())
    def test_inverse_round_trip_through_the_moebius_sum(self, K, beta, data):
        # A(A^-1 nu) = nu with the Moebius oracle, apart from the residual check's own pushes;
        # the inverse weighs at most prod 1/(1 - c_p) |nu|_1, each A at most prod (1 + c_p).
        # Below the normal range each root rounds once in each of the at most 8 Neumann
        # steps per prime (beta >= 0.3) and each of the 2^omega Moebius terms.
        nu = data.draw(sparse_measures(K))
        n = data.draw(st.sampled_from(divisors(K)))
        cs = [p**-beta for p in PrimeSet.dividing(n)]
        growth = math.prod((1 + c) / (1 - c) for c in cs)
        products = math.ceil(K * (8 * len(cs) + 2 ** len(cs)) * growth)
        back = mobius_apply_A(apply_A_inv(nu, n, beta, level=K), n, beta)
        assert max_atom_diff(back, nu) <= 1e-13 * growth * l1(nu) + products * 2.0**-1074

    def test_sparse_input_at_a_prime_level_with_all_classes(self):
        # one atom at level 997 and C >= K: the image is spread over all 997 roots
        nu = AtomicMeasure({root(5, 997): 1.0})
        got, tail = t_beta(nu, 2.0, 5000)
        want, want_tail = dict_t_beta(nu, 2.0, 5000)
        assert len(got) == len(want) == 997
        assert tail == want_tail
        assert max_atom_diff(got, want) <= 1e-16


class TestLevelGuards:
    """The push operators refuse level-K vectors over ARRAY_BYTES_LIMIT before allocating."""

    # half a point mass on two roots of prime orders near 10^6: level about 10^12
    HUGE = AtomicMeasure({root(1, 999983): 0.5, root(1, 1000003): 0.5})
    HUGE_K = 999983 * 1000003

    def test_huge_level_refused_by_every_operator(self):
        with pytest.raises(RangeError, match=rf"pushforward at level K = {self.HUGE_K} needs"):
            pushforward(self.HUGE, 3)
        with pytest.raises(RangeError, match=rf"apply_A at level K = {self.HUGE_K} needs"):
            apply_A(self.HUGE, 6, 0.7)
        with pytest.raises(RangeError, match=rf"C = 10 terms at level K = {self.HUGE_K} needs"):
            t_beta(self.HUGE, 2.0, 10)
        with pytest.raises(RangeError, match=rf"apply_A_inv at level K = {self.HUGE_K} needs"):
            apply_A_inv(self.HUGE, 6, 0.7)

    def test_huge_level_is_not_orbit_invariant(self):
        with pytest.raises(NotOrbitInvariantError) as err:
            decompose(self.HUGE, 0.7)
        # the order-1000003 atom deviates most: its share 0.5 / 1000002 is the smaller
        assert (err.value.atom, err.value.weight) == (root(1, 1000003), 0.5)

    def test_huge_level_reads_its_two_atoms(self):
        # mass, moments, restriction and distances never build the level-K roots
        nu, oracle = self.HUGE, DictMeasure(self.HUGE.atoms())
        assert (nu.support_level(), nu.mass()) == (self.HUGE_K, 1.0)
        for k in (1, 999983, self.HUGE_K + 5, -(10**30)):
            assert same(fourier(nu, k), dict_fourier(oracle, k))
        half = restrict(nu, 1000003)
        assert half.atoms() == {root(1, 1000003): 0.5}
        assert (tv_distance(nu, half), max_atom_diff(nu, half)) == (0.5, 0.5)

    @pytest.mark.parametrize("op, per_root, fixed", [
        (lambda nu: pushforward(nu, 4), PUSH_BYTES, 0),
        (lambda nu: apply_A(nu, 6, 0.7), PUSH_BYTES, 0),
        (lambda nu: t_beta(nu, 2.0, 1)[0], T_BETA_ROOT_BYTES, T_BETA_TERM_BYTES),
    ])
    def test_level_budget_boundary(self, monkeypatch, op, per_root, fixed):
        # under a limit of 600 roots' worth, level 600 works and level 606 is refused
        monkeypatch.setattr(arith, "ARRAY_BYTES_LIMIT", 600 * per_root + fixed)
        assert len(op(AtomicMeasure({root(1, 6): 1.0}, level=600))) > 0
        with pytest.raises(RangeError, match="K = 606 needs"):
            op(AtomicMeasure({root(1, 6): 1.0}, level=606))

    def test_series_length_refused_before_allocating(self):
        with pytest.raises(RangeError, match=r"C = 10000000000 terms at level K = 1 needs 228882 MiB"):
            t_beta(dirac(ONE), 2.0, 10**10)
        c_max = (ARRAY_BYTES_LIMIT - T_BETA_ROOT_BYTES) // T_BETA_TERM_BYTES
        with pytest.raises(RangeError, match=rf"C = {c_max + 1} terms"):
            t_beta(dirac(ONE), 2.0, c_max + 1)

    def test_image_atoms_charged_before_they_are_built(self, monkeypatch):
        # the 997 atoms of the image cost more than the vectors that hold them
        monkeypatch.setattr(arith, "ARRAY_BYTES_LIMIT", 900 * ATOM_ARRAY_BYTES)
        with pytest.raises(RangeError, match=r"a measure of 997 atoms needs"):
            t_beta(AtomicMeasure({root(5, 997): 1.0}), 2.0, 1000)

    def test_exact_root_image_refused_at_huge_order(self):
        with pytest.raises(RangeError, match=r"t_beta_exact_root at order 999999937 needs"):
            t_beta_exact_root(root(1, 999999937), 2.0)


class TestInt64Orders:
    """Atom orders are int64: 2^63 - 1 is the largest an atom may have."""

    def test_order_two_to_the_63_refused(self):
        with pytest.raises(RangeError, match=r"atom 1/9223372036854775808 has order 9223372036854775808"):
            AtomicMeasure({ONE: 0.5, RootOfUnity(1, 2**63): 0.5})

    def test_largest_order_exact(self):
        z = RootOfUnity(2**62, 2**63 - 1)
        nu = AtomicMeasure({ONE: 0.25, z: 0.75})
        assert (nu.weight(z), nu.weight(RootOfUnity(1, 2**64)), nu.support_level()) == (0.75, 0.0, 2**63 - 1)
        for k in (3, 2**62 + 1, -(2**70)):
            assert same(fourier(nu, k), dict_fourier(DictMeasure(nu.atoms()), k))
        assert restrict(nu, 2**64 - 2).atoms() == nu.atoms()
        assert restrict(nu, 2**64).atoms() == {ONE: 0.25}


class TestInverseAgainstClosedForm:
    """The push inverse, rescaled, against the closed-form extremal measures."""

    @pytest.mark.parametrize("beta", [0.05, 0.7, 1.0])
    def test_every_n_up_to_300(self, beta):
        worst = max(
            max_atom_diff(normalized_inverse(n, beta), extremal_measure(n, beta))
            for n in range(1, 301)
        )
        assert worst <= 1e-12

    def test_level_120120(self):
        n, beta = 120120, 0.7
        assert max_atom_diff(normalized_inverse(n, beta), extremal_measure(n, beta)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 512), st.floats(0.3, 2.0), st.data())
    def test_matches_dense_solve(self, K, beta, data):
        n = data.draw(st.sampled_from(divisors(K)))
        js = data.draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=8, unique=True))
        ws = data.draw(st.lists(st.floats(-1, 1), min_size=len(js), max_size=len(js)))
        nu = AtomicMeasure({root(j, K): w for j, w in zip(js, ws)}, signed=True)
        want = dense_A_inv(nu, n, beta, K)
        got = measures._level_vector(apply_A_inv(nu, n, beta, level=K), K)
        if np.max(np.abs(want)) >= 2.0**-1022:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        else:
            # below the normal range floats are spaced 2^-1074 apart, coarser than any
            # relative bound, and the dense solve is inexact there too
            exact = exact_A_inv(nu, n, beta, K)
            error = max(abs(Fraction(g) - e) for g, e in zip(got.tolist(), exact))
            assert error <= inverse_rounding_allowance(nu, n, beta, K)

    @pytest.mark.parametrize("K, n, beta, atoms, error_ulps", [
        (2, 2, 1.0, {0: 5e-324}, 1),  # exact 1e-323; 2^-1 * 5e-324 underflows to 0
        (2, 2, 1.0, {1: 8.2495333083e-313}, 1),
        (502, 502, 0.3, {1: 5e-324, 3: -1e-310}, 1),
    ])
    def test_subnormal_results_against_exact_rationals(self, K, n, beta, atoms, error_ulps):
        nu = AtomicMeasure({root(j, K): w for j, w in atoms.items()}, signed=True)
        got = measures._level_vector(apply_A_inv(nu, n, beta, level=K), K)
        exact = exact_A_inv(nu, n, beta, K)
        error = max(abs(Fraction(g) - e) for g, e in zip(got.tolist(), exact))
        assert error <= error_ulps * Fraction(2) ** -1074 <= inverse_rounding_allowance(nu, n, beta, K)

    @pytest.mark.parametrize("K, n, beta", [(12, 6, 0.7), (30, 30, 0.3), (502, 502, 0.3)])
    def test_exact_oracle_against_dense_solve(self, K, n, beta):
        nu = AtomicMeasure({root(1, K): 0.5, root(5, K): -0.25}, signed=True)
        exact = np.array([float(e) for e in exact_A_inv(nu, n, beta, K)])
        assert np.max(np.abs(exact - dense_A_inv(nu, n, beta, K))) <= 1e-12 * np.max(np.abs(exact))


class TestAtomGuard:
    def test_epsilon_refused_at_ten_million(self):
        with pytest.raises(RangeError, match=r"epsilon\(10000000\) with 4000000 atoms needs 687 MiB"):
            epsilon(10**7)

    def test_extremal_measure_refused_at_ten_million(self):
        with pytest.raises(RangeError, match=r"extremal_measure\(10000000\) .* 687 MiB"):
            extremal_measure(10**7, 0.7)


class TestFourier:
    def test_zeroth_moment_is_mass(self):
        rng = random.Random(17)
        nu = rand_signed_measure(rng)
        assert fourier(nu, 0) == pytest.approx(nu.mass())

    def test_uniform_on_sixth_roots(self):
        uni = AtomicMeasure({root(j, 6): 1 / 6 for j in range(6)})
        for k in range(-12, 13):
            expected = 1.0 if k % 6 == 0 else 0.0
            assert abs(fourier(uni, k) - expected) < 1e-14

    def test_extremal_moments_closed_form(self):
        # k-th moment of the index-n extremal measure:
        #   (n/g)^-beta sum_{d | n/g} mu(d) phi_beta(d)/phi(d),  g = gcd(n, k)
        from affkms.arith import divisors, mobius

        for n, beta in ((6, 0.7), (12, 1.0), (9, 0.4)):
            nu = extremal_measure(n, beta)
            for k in range(0, 2 * n + 1):
                g = gcd(n, k)
                m = n // g
                expected = m**-beta * sum(
                    mobius(d) * totient_beta(d, beta) / totient(d) for d in divisors(m)
                )
                assert fourier(nu, k) == pytest.approx(expected, abs=1e-12)


class TestSubconformal:
    def test_extremal_measures_pass_small(self):
        for n in (1, 2, 6, 12):
            for beta in (0.3, 1.0):
                verdict = check_subconformal(extremal_measure(n, beta), beta, extra_prime_bound=10)
                assert verdict.passed, verdict

    def test_dirac_half_fails_with_witness(self):
        verdict = check_subconformal(dirac(root(1, 2)), 1.0, extra_prime_bound=10)
        assert not verdict.passed
        F, atom, value = verdict.witness
        assert F == (2,)
        assert atom == ONE
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_point_mass_at_one_always_passes(self):
        for beta in (0.0, 0.5, 1.0, 2.0):
            assert check_subconformal(dirac(ONE), beta, extra_prime_bound=15).passed

    def test_signed_input_rejected(self):
        rng = random.Random(19)
        with pytest.raises(ValueError):
            check_subconformal(rand_signed_measure(rng), 1.0)

    def test_restriction_preserves_subconformality(self):
        nu = extremal_measure(12, 0.8).scaled(0.5).plus(extremal_measure(3, 0.8).scaled(0.5))
        assert check_subconformal(nu, 0.8, extra_prime_bound=10).passed
        res = restrict(nu, 4)
        assert check_subconformal(res, 0.8, extra_prime_bound=10).passed


def dict_frontier_check(nu, beta, extra_prime_bound=30, tol=1e-9):
    """The verifier as one dict-of-roots measure per subset F, kept as an oracle."""
    K = nu.support_level()
    support_ps = list(factorize(K).prime_divisors())
    window = [p for p in primes_up_to(extra_prime_bound) if K % p != 0]
    ps = sorted(support_ps + window)

    # grow A_{beta,F} nu one prime at a time over all 2^|ps| subsets
    frontier: list[tuple[tuple[int, ...], AtomicMeasure]] = [((), nu)]
    for p in ps:
        fac = float(p) ** -beta
        new = []
        for F, m in frontier:
            pushed = dict_pushforward(m, p)
            nxt = m.plus(pushed.scaled(-fac))
            new.append((F + (p,), nxt))
        frontier += new
    worst: tuple[tuple[int, ...], RootOfUnity, float] | None = None
    for F, m in frontier:
        for z, w in m.atoms().items():
            if w < -tol and (worst is None or w < worst[2]):
                worst = (F, z, w)
    if worst is not None:
        return SubconformalVerdict(False, worst, tuple(ps), "violation witnessed")
    return SubconformalVerdict(
        True, None, tuple(ps),
        f"bounded certificate: all square-free F from primes {ps} pass at tol {tol}",
    )


def exact_A_F_at(nu, beta, F, z):
    """(A_{beta,F} nu)({z}), with every atom pushed forward in exact fractions."""
    target = Fraction(z.num, z.den)
    terms = []
    for k in range(len(F) + 1):
        for D in combinations(F, k):
            d = math.prod(D)
            c = (-1) ** k * float(d) ** -beta
            terms += [c * w for x, w in nu.atoms().items() if Fraction(x.num * d, x.den) % 1 == target]
    return math.fsum(terms)


def orbit_invariant_mixture(data, L, beta):
    """sum_n c_n nu_{beta,n} over the divisors n of L, some c_n negative and every atom
    at least 1e-6, normalised.

    The atoms of order d weigh phi_beta(d)/phi(d) sum_{d | n} c_n n^-beta.  Going down
    the divisors, c_d is drawn zero, in [0.02, 1] or in [-0.3, -0.02], each range cut to
    the c_d that keep the order-d atoms at 2e-6 or more given the c_n of the multiples
    n of d; a kind that no such c_d has becomes positive.
    """
    coeffs: dict[int, float] = {}
    for d in sorted(divisors(L), reverse=True):
        kind = data.draw(st.sampled_from(["zero", "positive", "negative"]))
        t = data.draw(st.floats(0.0, 1.0))
        above = [n for n, c in coeffs.items() if c and n % d == 0]
        rest = sum(coeffs[n] * n**-beta for n in above)
        lo = (2e-6 * totient(d) / totient_beta(d, beta) - rest) * d**beta
        if kind == "negative" and max(-0.3, lo) <= -0.02:
            coeffs[d] = -0.02 + t * (max(-0.3, lo) + 0.02)
        elif kind == "zero" and (lo <= 0 if above else d > 1):
            coeffs[d] = 0.0
        else:
            coeffs[d] = max(0.02, lo) + 0.98 * t
    atoms: dict[RootOfUnity, float] = {}
    for n, c in coeffs.items():
        if c:
            for z, w in extremal_measure(n, beta).atoms().items():
                atoms[z] = atoms.get(z, 0.0) + c * w
    assert min(atoms.values()) >= 1e-6
    mass = sum(atoms.values())
    return AtomicMeasure({z: w / mass for z, w in atoms.items()})


class TestSubconformalAgainstDictFrontier:
    """The level-K array verifier against one dict measure per subset."""

    def assert_agrees(self, nu, beta, window):
        got, want = check_subconformal(nu, beta, window), dict_frontier_check(nu, beta, window)
        assert got.passed == want.passed
        assert got.primes_checked == want.primes_checked
        assert got.note == want.note
        if not got.passed:
            F, z, value = got.witness
            # both sum the preimages of a point in their own order; a value that cancels
            # is pinned relative to the l1 size of its terms, at most prod(1 + p^-beta) * mass
            size = math.prod(1 + p**-beta for p in F) * nu.mass()
            assert abs(value - want.witness[2]) <= 1e-15 * size
            assert abs(value - exact_A_F_at(nu, beta, F, z)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30), st.integers(5, 15), st.floats(0.1, 1.0), st.data())
    def test_random_measures(self, L, window, beta, data):
        roots = [root(j, L) for j in range(L)]
        picked = data.draw(st.lists(st.sampled_from(roots), min_size=1, max_size=8, unique=True))
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(picked),
                                     max_size=len(picked)))
        self.assert_agrees(AtomicMeasure(dict(zip(picked, weights))), beta, window)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([4, 6, 10, 12, 18, 30]), st.integers(5, 15), st.floats(0.1, 1.0),
           st.data())
    def test_orbit_invariant_mixtures(self, L, window, beta, data):
        self.assert_agrees(orbit_invariant_mixture(data, L, beta), beta, window)

    def test_extremal_measure_at_window_60(self):
        # 17 primes: 2^17 subsets on the 30th roots
        verdict = check_subconformal(extremal_measure(30, 1.0), 1.0, 60)
        assert verdict.passed, verdict
        assert len(verdict.primes_checked) == 17

    def test_tie_keeps_first_subset_then_smallest_root(self):
        # A_{1,2} of the uniform measure on the primitive 8th roots is -1/4 at 1/4 and 3/4 alike
        verdict = check_subconformal(epsilon(8), 1.0, 2)
        assert verdict.witness == ((2,), root(1, 4), -0.25)

    def test_oversized_frontier_refused(self):
        # 25 primes up to 100 at level 6: 8 * 6 * 2^25 bytes = 1536 MiB, refused before allocating
        with pytest.raises(RangeError, match=r"m = 25 primes at level K = 6 .* 1536 MiB"):
            check_subconformal(extremal_measure(6, 0.7), 0.7, 100)


class TestRestrict:
    def test_drops_higher_orders(self):
        mix = epsilon(6).scaled(0.5).plus(epsilon(2).scaled(0.3)).plus(epsilon(3).scaled(0.2))
        res = restrict(mix, 2)
        assert set(res.atoms()) == set(epsilon(2).atoms()) | set()
        assert res.mass() == pytest.approx(0.3)

    def test_full_level_is_identity(self):
        rng = random.Random(23)
        nu = rand_signed_measure(rng)
        assert max_atom_diff(restrict(nu, nu.support_level()), nu) == 0.0


class TestExtremalMeasure:
    def test_index_one_is_point_mass(self):
        assert max_atom_diff(extremal_measure(1, 0.7), dirac(ONE)) == 0.0

    def test_critical_temperature_is_uniform(self):
        got = extremal_measure(6, 1.0)
        uni = AtomicMeasure({root(j, 6): 1 / 6 for j in range(6)})
        assert max_atom_diff(got, uni) < 1e-15

    def test_index_two_closed_form(self):
        for beta in (0.3, 0.9, 1.7):
            got = extremal_measure(2, beta)
            expected = AtomicMeasure({ONE: 2.0**-beta, root(1, 2): 1 - 2.0**-beta})
            assert max_atom_diff(got, expected) < 1e-15

    def test_beta_zero_collapses_to_point_mass(self):
        for n in (1, 4, 30):
            assert max_atom_diff(extremal_measure(n, 0.0), dirac(ONE)) == 0.0

    def test_probability(self):
        for n in (7, 12, 30):
            for beta in (0.2, 1.0, 2.5):
                nu = extremal_measure(n, beta)
                assert abs(nu.mass() - 1.0) <= 1e-10 and nu.min_weight() >= -1e-10

    def test_wrap_lattice_small(self):
        for n in (6, 12):
            for k in range(1, 13):
                for beta in (0.5, 1.0):
                    got = pushforward(extremal_measure(n, beta), k)
                    want = extremal_measure(n // gcd(n, k), beta)
                    assert max_atom_diff(got, want) < 1e-12


class TestDecompose:
    def test_extremal_is_extremal(self):
        for n in (1, 2, 6, 12):
            for beta in (0.4, 1.0):
                lam = decompose(extremal_measure(n, beta), beta)
                assert set(lam) == {n}
                assert lam[n] == pytest.approx(1.0, abs=1e-12)

    def test_convex_roundtrip(self):
        beta = 0.7
        mix = extremal_measure(2, beta).scaled(0.3).plus(extremal_measure(15, beta).scaled(0.7))
        lam = decompose(mix, beta)
        assert lam[2] == pytest.approx(0.3, abs=1e-9)
        assert lam[15] == pytest.approx(0.7, abs=1e-9)
        assert set(lam) == {2, 15}

    def test_uniform_on_z4_at_critical(self):
        uni = AtomicMeasure({root(j, 4): 0.25 for j in range(4)})
        lam = decompose(uni, 1.0)
        assert set(lam) == {4}
        assert lam[4] == pytest.approx(1.0, abs=1e-12)

    def test_not_subconformal_diagnostic(self):
        with pytest.raises(NotSubconformalError) as err:
            decompose(dirac(root(1, 2)), 1.0)
        assert err.value.witness_n == 1
        assert err.value.coefficients[1] < 0

    def test_orbit_non_invariant_rejected(self):
        # equal mass on each order, but not spread evenly over the order-5 roots:
        # the coefficients alone would read {1: 0.603, 5: 0.397}
        nu = AtomicMeasure({ONE: 0.7316, root(3, 5): 0.2684})
        with pytest.raises(NotOrbitInvariantError) as err:
            decompose(nu, 0.7)
        assert err.value.atom == root(3, 5)
        assert err.value.weight == 0.2684
        assert err.value.expected == pytest.approx(0.2684 / 4, abs=1e-15)
        assert not check_subconformal(nu, 0.7).passed

    def test_mass_additivity(self):
        rng = random.Random(29)
        beta = 0.5
        for _ in range(10):
            weights = [rng.uniform(0, 1) for _ in range(3)]
            ns = rng.sample([1, 2, 3, 4, 6, 12], 3)
            mix = AtomicMeasure()
            for w, n in zip(weights, ns):
                mix = mix.plus(extremal_measure(n, beta).scaled(w))
            lam = decompose(mix, beta)
            assert sum(lam.values()) == pytest.approx(sum(weights), abs=1e-9)


def enumerated_orbit_witness(nu):
    """The former orbit check over every root of each present order, listed by epsilon:
    the first largest deviation, its root and the share of the root's order."""
    primitive_mass: dict[int, float] = {}
    for z, w in nu.atoms().items():
        primitive_mass[z.den] = primitive_mass.get(z.den, 0.0) + w
    shares = {d: m / totient(d) for d, m in primitive_mass.items()}
    deviations = [(abs(nu.weight(z) - s), z) for d, s in shares.items() for z in epsilon(d).atoms()]
    dev, z = max(deviations, key=lambda t: t[0])
    return dev, z, shares[z.den]


class TestOrbitCheck:
    """decompose's orbit check compares the atoms present, and one absent root per order."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 5, 12, 30, 60]), st.data())
    def test_same_witness_as_the_enumeration(self, L, data):
        # few distinct weights, so that ties between deviations are common
        roots = [root(j, L) for j in range(L)]
        picked = data.draw(st.lists(st.sampled_from(roots), min_size=1, max_size=12, unique=True))
        weights = data.draw(st.lists(st.sampled_from([0.05, 0.1, 0.25]), min_size=len(picked),
                                     max_size=len(picked)))
        nu = AtomicMeasure(dict(zip(picked, weights)))
        dev, z, share = enumerated_orbit_witness(nu)
        try:
            decompose(nu, 1.0)
        except NotOrbitInvariantError as err:
            assert dev > 1e-9
            assert (err.atom, err.weight, err.expected) == (z, nu.weight(z), share)
            return
        except NotSubconformalError:
            pass
        assert dev <= 1e-9

    def test_absent_root_of_smallest_numerator_is_the_witness(self):
        # share 0.05 on the order-5 roots: 2/5 and 3/5 deviate by 0.05, and so do the
        # absent 1/5 and 4/5; the first in numerator order is absent
        nu = AtomicMeasure({ONE: 0.8, root(2, 5): 0.1, root(3, 5): 0.1})
        with pytest.raises(NotOrbitInvariantError) as err:
            decompose(nu, 0.7)
        assert (err.value.atom, err.value.weight, err.value.expected) == (root(1, 5), 0.0, 0.05)

    def test_large_prime_order_without_enumerating_its_roots(self):
        # epsilon(999983) alone would be 999982 atoms
        nu = AtomicMeasure({ONE: 0.5, root(1, 999983): 0.5})
        with pytest.raises(NotOrbitInvariantError) as err:
            decompose(nu, 0.7)
        assert (err.value.atom, err.value.weight) == (root(1, 999983), 0.5)
        assert err.value.expected == 0.5 / 999982

    def test_order_99991_two_atoms(self):
        nu = AtomicMeasure({ONE: 0.5, root(7, 99991): 0.5})
        with pytest.raises(NotOrbitInvariantError) as err:
            decompose(nu, 1.0)
        assert err.value.atom == root(7, 99991)


LEVEL_12_ROOTS = [RootOfUnity(j, d) for d in (1, 2, 3, 4, 6, 12) for j in range(d) if gcd(j, d) == 1]


def reconstruction_error(lam, nu, beta):
    recon = AtomicMeasure()
    for n, w in lam.items():
        recon = recon.plus(extremal_measure(n, beta).scaled(w))
    return max_atom_diff(recon, nu)


class TestDecomposeContract:
    """decompose either reconstructs its input or raises a typed error."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.sampled_from([1, 2, 3, 4, 6, 12]), st.floats(0.01, 1.0), min_size=1),
        st.sampled_from([0.3, 0.7, 1.0]),
        st.sampled_from([z for z in LEVEL_12_ROOTS if z.den > 2]),
        st.floats(0.0, 0.5),
    )
    def test_mixture_with_mass_moved_within_an_orbit(self, coeffs, beta, z, t):
        # the order masses, and so the coefficients, stay those of a mixture;
        # only the atoms can tell that mass moved from z to its conjugate
        atoms: dict[RootOfUnity, float] = {}
        for n, c in coeffs.items():
            for x, w in extremal_measure(n, beta).atoms().items():
                atoms[x] = atoms.get(x, 0.0) + c * w
        moved = t * atoms.get(z, 0.0)
        conj = root(-z.num, z.den)
        atoms[z] = atoms.get(z, 0.0) - moved
        atoms[conj] = atoms.get(conj, 0.0) + moved
        nu = AtomicMeasure({x: w for x, w in atoms.items() if w > 0})
        try:
            lam = decompose(nu, beta)
        except NotOrbitInvariantError:
            assert moved > 1e-9
            return
        assert reconstruction_error(lam, nu, beta) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.sampled_from([1, 2, 3, 4, 6, 12]), st.floats(0.01, 1.0), min_size=1),
        st.sampled_from([0.3, 0.7, 1.0]),
    )
    def test_orbit_invariant_measure(self, order_mass, beta):
        # spreading each order's mass evenly over its roots never trips the orbit check
        nu = AtomicMeasure({z: order_mass[z.den] / totient(z.den)
                            for z in LEVEL_12_ROOTS if z.den in order_mass})
        try:
            lam = decompose(nu, beta)
        except NotSubconformalError:
            return
        assert reconstruction_error(lam, nu, beta) <= 1e-9


class TestDecomposeAgainstVerifier:
    """On orbit-invariant measures the two routes to subconformality agree."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([4, 6, 10, 12, 18, 30]),
        st.floats(0.1, 1.0),
        st.data(),
    )
    def test_decompose_rejects_exactly_what_the_verifier_rejects(self, L, beta, data):
        nu = orbit_invariant_mixture(data, L, beta)
        try:
            decompose(nu, beta)
            rejected = False
        except NotSubconformalError:
            rejected = True
        assert rejected == (not check_subconformal(nu, beta, 10).passed)


class TestTBeta:
    def test_point_mass_at_one_stays(self):
        got, tail = t_beta(dirac(ONE), 2.0, 1000)
        assert set(got.atoms()) == {ONE}
        partial = sum(c**-2.0 for c in range(1, 1001))
        assert got.weight(ONE) == pytest.approx(partial / zeta(2.0), rel=1e-12)
        assert tail == pytest.approx(1 - partial / zeta(2.0), rel=1e-9)

    def test_mass_bookkeeping(self):
        rng = random.Random(31)
        nu = rand_signed_measure(rng)
        got, tail = t_beta(nu, 1.5, 500)
        assert got.mass() + tail * nu.mass() == pytest.approx(nu.mass(), abs=1e-12)

    def test_matches_extremal_within_tail(self):
        got, tail = t_beta(epsilon(6), 2.0, 10_000)
        assert tv_distance(got, extremal_measure(6, 2.0)) <= tail + 1e-12

    def test_beta_at_or_below_one_rejected(self):
        with pytest.raises(ValueError):
            t_beta(dirac(ONE), 1.0, 10)


class TestTBetaExactRoot:
    def test_at_one(self):
        got = t_beta_exact_root(ONE, 2.0)
        assert max_atom_diff(got, dirac(ONE)) < 1e-12

    def test_probability(self):
        for beta in (1.2, 2.0, 3.5):
            got = t_beta_exact_root(root(1, 6), beta)
            assert abs(got.mass() - 1.0) < 1e-10

    def test_agrees_with_truncation(self):
        exact = t_beta_exact_root(root(1, 4), 2.0)
        approx, tail = t_beta(dirac(root(1, 4)), 2.0, 100_000)
        assert tv_distance(exact, approx) <= tail + 1e-10

    def test_atoms_positive_and_decreasing_in_phase(self):
        got = t_beta_exact_root(root(1, 5), 2.0)
        ws = [got.weight(root(j, 5)) for j in (1, 2, 3, 4)]
        assert all(w > 0 for w in ws + [got.weight(ONE)])
        assert ws == sorted(ws, reverse=True)
        assert got.weight(ONE) < ws[-1]


MALFORMED_MEASURES = {
    "nan-weight": ('{"level": 2, "atoms": [{"num": 1, "den": 2, "weight": NaN}]}', ValueError),
    "infinite-weight": ('{"level": 2, "atoms": [{"num": 1, "den": 2, "weight": Infinity}]}',
                        ValueError),
    "float-level": ('{"level": 6.0, "atoms": [{"num": 1, "den": 2, "weight": 1.0}]}', TypeError),
    "float-root": ('{"atoms": [{"num": 1.7, "den": 2.2, "weight": 1.0}]}', TypeError),
    "zero-level": ('{"level": 0, "atoms": [{"num": 0, "den": 1, "weight": 1.0}]}', ValueError),
    "negative-level": ('{"level": -6, "atoms": [{"num": 0, "den": 1, "weight": 1.0}]}',
                       ValueError),
    "order-beyond-int64": ('{"atoms": [{"num": 1, "den": 9223372036854775808, "weight": 1.0}]}',
                           RangeError),
}


class TestSerialization:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MEASURES))
    def test_malformed_measure_rejected(self, case):
        text, error = MALFORMED_MEASURES[case]
        with pytest.raises(error):
            measure_from_dict(json.loads(text))

    def test_repeated_atom_rejected(self):
        # read as a dict, the second weight at 0/1 would replace the first
        atoms = [{"num": 0, "den": 1, "weight": 0.5}, {"num": 1, "den": 2, "weight": 0.25},
                 {"num": 0, "den": 1, "weight": 0.25}]
        with pytest.raises(ValueError, match=r"^atom 0/1 is listed twice$"):
            measure_from_dict({"atoms": atoms})

    def test_cancelled_atom_is_not_written(self):
        parts = [(root(1, 2), 1.0), (root(1, 2), -1.0), (ONE, 1.0)]
        built = AtomicMeasure(parts, signed=True)
        summed = AtomicMeasure(parts[:1], signed=True).plus(AtomicMeasure(parts[1:], signed=True))
        assert built.atoms() == summed.atoms() == {ONE: 1.0}
        assert built.support_level() == summed.support_level() == 1
        assert measure_to_dict(built)["atoms"] == [{"num": 0, "den": 1, "weight": 1.0}]

    def test_roundtrip_bit_exact(self):
        nu = AtomicMeasure(
            {root(1, 3): 0.1 + 0.2, root(5, 7): -1.75, ONE: 1e-17}, signed=True
        )
        text = json.dumps(measure_to_dict(nu), sort_keys=True)
        back = measure_from_dict(json.loads(text))
        assert back.signed == nu.signed
        for z, w in nu.atoms().items():
            assert back.weight(z) == w  # floats survive repr round trip exactly
        doc = json.loads(text)
        assert set(doc) == {"level", "signed", "atoms"}
        assert doc["level"] == nu.support_level()
