"""The acceptance suite: one callable per criterion, each with its pinned tolerance.

Every criterion reports a single pass/fail line; tolerances are fixed here,
not configurable.  The whole suite runs from the CLI as ``affkms self-test``
and from pytest via ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable

from .arith import PrimeSet, divisors, primes_up_to
from .algebra import AlgebraElement, Monomial, projection_eab, range_projection, projection_eF
from .measures import (
    ONE,
    AtomicMeasure,
    NotSubconformalError,
    apply_A_inv,
    check_subconformal,
    decompose,
    dirac,
    epsilon,
    extremal_measure,
    max_atom_diff,
    pushforward,
    root,
    t_beta,
    t_beta_exact_root,
    tv_distance,
)
from .states import (
    FiniteN,
    FromMeasure,
    LebesgueInf,
    apply_kappa,
    coherence_sweep,
    eval_element,
    eval_state,
    kms_sweep,
    limit_beta1,
    reconstruct_check,
    subconformal_witness_value,
    weak_star_gap,
)
from .asymptotics import (
    EULER_GAMMA,
    SequenceSpec,
    dickman,
    dickman_mass,
    mertens_product,
    psi_count_table,
    psi_counts,
    smooth_harmonic_sum,
    wiener_sum,
)

SEED = 0x5EED


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {status} ({self.elapsed:6.2f}s) {self.name}: {self.detail}"


def _rand_monomial(rng, hi, khi):
    return Monomial(rng.randint(1, hi), rng.randint(-khi, khi), rng.randint(1, hi))


def criterion_1() -> tuple[bool, str]:
    """Index-2 closed form at beta = 1 and beta = 0.5, to 1e-12."""
    worst = 0.0
    for a in range(1, 21):
        for k in range(-9, 10):
            got = eval_state(FiniteN(2, 1.0), Monomial(a, k, a)).value
            want = 1.0 / a if k % 2 == 0 else 0.0
            worst = max(worst, abs(got - want))
            got = eval_state(FiniteN(2, 0.5), Monomial(a, k, a)).value
            want = a**-0.5 if k % 2 == 0 else a**-0.5 * (2**0.5 - 1)
            worst = max(worst, abs(got - want))
    return worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def criterion_2() -> tuple[bool, str]:
    """Closed-form extremal measure vs. normalized operator-inverse route, 1e-10."""
    worst = 0.0
    for n in range(1, 31):
        for beta in (0.3, 0.7, 1.0):
            scale = math.prod(1 - p**-beta for p in PrimeSet.dividing(n))
            via_inverse = apply_A_inv(epsilon(n), n, beta, level=n).scaled(scale)
            worst = max(worst, max_atom_diff(extremal_measure(n, beta), via_inverse))
    return worst <= 1e-10, f"max atom deviation {worst:.2e} (tol 1e-10)"


def _random_mixture(rng, beta, level):
    ns = [d for d in divisors(level) if rng.random() < 0.5] or [level]
    raw = [rng.random() + 0.05 for _ in ns]
    total = sum(raw)
    coeffs = {n: w / total for n, w in zip(ns, raw)}
    mix = AtomicMeasure()
    for n, w in coeffs.items():
        mix = mix.plus(extremal_measure(n, beta).scaled(w))
    return coeffs, mix


def criterion_3(corrupt: bool = False) -> tuple[bool, str]:
    """Decomposition roundtrip: 50 random mixtures over divisors of 60, per beta."""
    rng = random.Random(SEED)
    worst_coeff = worst_atom = 0.0
    for beta in (0.3, 1.0):
        for trial in range(50):
            coeffs, mix = _random_mixture(rng, beta, 60)
            if corrupt and trial == 0:
                # seeded weight corruption: mass moved between the order-2 atoms
                atoms = mix.atoms()
                atoms[ONE] = atoms.get(ONE, 0.0) + 0.05
                atoms[root(1, 2)] = atoms.get(root(1, 2), 0.0) - 0.05
                mix = AtomicMeasure({z: w for z, w in atoms.items() if w > 0})
            try:
                lam = decompose(mix, beta)
            except NotSubconformalError as err:
                return False, f"decompose rejected input: {err}"
            for n in set(coeffs) | set(lam):
                worst_coeff = max(worst_coeff, abs(coeffs.get(n, 0.0) - lam.get(n, 0.0)))
            recon = AtomicMeasure()
            for n, w in lam.items():
                recon = recon.plus(extremal_measure(n, beta).scaled(w))
            worst_atom = max(worst_atom, max_atom_diff(recon, mix))
    ok = worst_coeff <= 1e-9 and worst_atom <= 1e-9
    return ok, f"max coefficient dev {worst_coeff:.2e}, max atom dev {worst_atom:.2e} (tol 1e-9)"


def criterion_4() -> tuple[bool, str]:
    """Equilibrium identity residual <= 1e-10 on 1000 seeded pairs per state family."""
    mixture = AtomicMeasure()
    for n, w in ((4, 0.35), (9, 0.4), (10, 0.25)):
        mixture = mixture.plus(extremal_measure(n, 0.5).scaled(w))
    specs = [FiniteN(6, 0.8), LebesgueInf(1.0), FromMeasure(mixture, 0.5)]
    worst = max(kms_sweep(spec, 1000, random.Random(SEED))[0] for spec in specs)
    return worst <= 1e-10, f"max residual {worst:.2e} over 3x1000 pairs (tol 1e-10)"


def criterion_5() -> tuple[bool, str]:
    """Subconformality detection: extremal measures pass, the half-turn mass fails."""
    for n in range(1, 31):
        for beta in (0.3, 1.0):
            verdict = check_subconformal(extremal_measure(n, beta), beta, 30, tol=1e-9)
            if not verdict.passed:
                return False, f"extremal n={n}, beta={beta} rejected: {verdict.witness}"
    verdict = check_subconformal(dirac(root(1, 2)), 1.0, 30, tol=1e-9)
    if verdict.passed:
        return False, "half-turn point mass was not detected"
    F, atom, value = verdict.witness
    if not (F == (2,) and atom == ONE and abs(value + 0.5) <= 1e-12):
        return False, f"unexpected witness {verdict.witness}"
    w = subconformal_witness_value(
        dirac(root(1, 2)), 1.0, PrimeSet.of([2]), {0: 1.0, 1: 0.5, -1: 0.5}
    )
    if abs(w + 1.0) > 1e-12:
        return False, f"1+cos witness value {w} != -1"
    return True, f"witness value {value:+.3f} at atom {atom}, 1+cos pairing {w:+.3f}"


def criterion_6() -> tuple[bool, str]:
    """Wrap-around lattice: the pushforward by k lowers the index to n/gcd(n,k)."""
    worst = 0.0
    for beta in (0.5, 1.0):
        cache = {n: extremal_measure(n, beta) for n in range(1, 31)}
        for n in range(1, 31):
            for k in range(1, 31):
                got = pushforward(cache[n], k)
                worst = max(worst, max_atom_diff(got, cache[n // gcd(n, k)]))
    return worst <= 1e-12, f"max atom deviation {worst:.2e} (tol 1e-12)"


def criterion_7() -> tuple[bool, str]:
    """Projection families: exact orthogonality and completeness; e_F masses to 1e-12."""
    for a in range(1, 61):
        for b in divisors(a):
            fam = [projection_eab(a, b * d) for d in divisors(a // b)]
            total = AlgebraElement.zero()
            for i, p in enumerate(fam):
                total = total + p
                for q in fam[i + 1 :]:
                    prod = p * q
                    if not prod.is_zero():
                        return False, f"e_({a},{b}d) family not orthogonal at b={b}"
            if not total.equals(range_projection(b)):
                return False, f"e_({a},{b}d) family does not sum to V_{b}V_{b}* (a={a})"
    beta = 0.8
    specs = [
        FiniteN(6, beta),
        LebesgueInf(beta),
        FromMeasure(extremal_measure(12, beta), beta),
    ]
    worst = 0.0
    primes = [2, 3, 5, 7]
    for mask in range(16):
        F = PrimeSet.of([p for i, p in enumerate(primes) if mask >> i & 1])
        expected = math.prod(1 - p**-beta for p in F)
        eF = projection_eF(F)
        for spec in specs:
            got = eval_element(spec, eF).value
            worst = max(worst, abs(got - expected))
    ok = worst <= 1e-12
    return ok, f"families exact for a <= 60; max e_F mass deviation {worst:.2e} (tol 1e-12)"


def criterion_8() -> tuple[bool, str]:
    """Truncated series image vs. the exact extremal measure / Hurwitz route."""
    approx, tail = t_beta(epsilon(6), 2.0, 100_000)
    d1 = tv_distance(approx, extremal_measure(6, 2.0))
    if not (d1 <= tail + 1e-12 and tail < 2e-5):
        return False, f"series vs closed form: distance {d1:.2e}, tail {tail:.2e}"
    exact = t_beta_exact_root(root(1, 4), 2.0)
    approx2, tail2 = t_beta(dirac(root(1, 4)), 2.0, 1_000_000)
    d2 = tv_distance(exact, approx2)
    ok = d2 <= tail2 + 1e-12
    return ok, f"distances {d1:.2e} <= tail {tail:.2e}; {d2:.2e} <= tail {tail2:.2e}"


def criterion_9() -> tuple[bool, str]:
    """Strictly decreasing distance to uniform as beta drops to 1."""
    betas = [1 + 10.0**-j for j in range(1, 7)]
    rows = limit_beta1(root(1, 4), betas)
    dists = [d for _, d in rows]
    ok = all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    return ok, "distances " + " > ".join(f"{d:.2e}" for d in dists)


def criterion_10() -> tuple[bool, str]:
    """Symmetry lowering: composing with the k -> bk endomorphism divides the index."""
    rng = random.Random(SEED)
    monomials = [_rand_monomial(rng, hi=25, khi=20) for _ in range(100)]
    specs = {n: FiniteN(n, 0.7) for n in range(1, 31)}
    worst = 0.0
    for n, spec in specs.items():
        for b in range(0, 31):
            lowered = specs[n // gcd(n, b) if b else 1]
            for x in monomials:
                lhs = eval_state(spec, apply_kappa(b, x)).value
                rhs = eval_state(lowered, x).value
                worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"max deviation {worst:.2e} over 100 monomials x n,b <= 30 (tol 1e-12)"


def criterion_11() -> tuple[bool, str]:
    """Level restriction coherence for every (N <= 24, m | N, n | N)."""
    rng = random.Random(SEED)
    sweeps = [coherence_sweep(N, 0.7, 20, rng) for N in range(1, 25)]
    worst = max(gap for gap, _, _ in sweeps)
    count = sum(checks for _, _, checks in sweeps)
    return worst <= 1e-12, f"max deviation {worst:.2e} over {count} checks (tol 1e-12)"


def criterion_12() -> tuple[bool, str]:
    """Compression-series reconstruction of psi(U^k) within the reported tail."""
    details = []
    ok = True
    for k in (1, 2, 3):
        lhs, rhs, tail = reconstruct_check(FiniteN(4, 0.9), PrimeSet.of([2, 3]), k, 10_000)
        gap = abs(lhs - rhs)
        ok = ok and gap <= tail
        details.append(f"k={k}: |gap| {gap:.2e} <= tail {tail:.2e}")
    return ok, "; ".join(details)


def criterion_13() -> tuple[bool, str]:
    """Exact smooth counter (Buchstab recursion) vs. the prime-power sieve at 100 sampled x <= 1e5 per y."""
    xmax = 100_000
    rng = random.Random(SEED)
    for y in primes_up_to(97):
        table = psi_count_table(xmax, y)
        xs = [rng.randint(1, xmax) for _ in range(100)]
        for x, count in zip(xs, psi_counts(xs, y).tolist()):
            if count != table[x]:
                return False, f"recursion {count} != sieve {table[x]} at x={x}, y={y}"
    return True, "recursion equals the sieve at 100 sampled x <= 1e5 per y, y in the primes <= 97"


def criterion_14() -> tuple[bool, str]:
    """Dickman solver: rho(2) to 1e-6 and total mass to 1e-3 of e^gamma."""
    e1 = abs(dickman(2.0) - (1 - math.log(2)))
    e2 = abs(dickman_mass(20.0, 0.005) - math.exp(EULER_GAMMA))
    ok = e1 <= 1e-6 and e2 <= 1e-3
    return ok, f"|rho(2) - (1-ln 2)| = {e1:.2e} (tol 1e-6); mass error {e2:.2e} (tol 1e-3)"


def criterion_15() -> tuple[bool, str]:
    """Mertens scaling: relative deviation < 10% at 1e6 and improving from 1e3."""
    r3 = mertens_product(10**3)
    r6 = mertens_product(10**6)
    ok = r6.rel_dev < 0.10 and r6.rel_dev < r3.rel_dev
    return ok, f"rel_dev(1e6) = {r6.rel_dev:.2e} < rel_dev(1e3) = {r3.rel_dev:.2e}"


def criterion_16() -> tuple[bool, str]:
    """Vanishing-sum trends at C = 1e7 over n_primes = 3..10."""
    C = 10**7
    prime_vals = [
        smooth_harmonic_sum(n, SequenceSpec.prime_indicator(), C).value
        for n in range(3, 11)
    ]
    if not all(a > b for a, b in zip(prime_vals, prime_vals[1:])):
        return False, f"prime-indicator sums not decreasing: {prime_vals}"
    # density 1 + cos/2: moments supported on {-1, 0, 1} with quarter weights
    nu_hat = {0: 1.0, 1: 0.25, -1: 0.25}
    wiener_vals = [
        abs(wiener_sum(nu_hat, n, PrimeSet.of([]), 1, 0, C)) for n in range(3, 11)
    ]
    if not all(a > b for a, b in zip(wiener_vals, wiener_vals[1:])):
        return False, f"nonatomic-proxy sums not decreasing: {wiener_vals}"
    if not wiener_vals[-1] < 0.05:
        return False, f"final nonatomic-proxy value {wiener_vals[-1]:.4f} >= 0.05"
    contrast = [
        abs(wiener_sum(lambda m: (-1.0) ** m, n, PrimeSet.of([2]), 1, 0, C))
        for n in range(3, 11)
    ]
    if not all(v > 0.2 for v in contrast):
        return False, f"atomic contrast dipped below 0.2: {contrast}"
    return True, (
        f"prime sums {prime_vals[0]:.3f}->{prime_vals[-1]:.3f}; "
        f"proxy {wiener_vals[0]:.4f}->{wiener_vals[-1]:.4f} < 0.05; "
        f"contrast min {min(contrast):.3f} > 0.2"
    )


def criterion_17() -> tuple[bool, str]:
    """Weak-* gap within its bound, and non-increasing along the dyadic sequence."""
    rng = random.Random(SEED)
    worst_excess = 0.0
    for _ in range(1000):
        n = rng.randint(1, 2000)
        x = _rand_monomial(rng, hi=30, khi=25)
        gap, bound = weak_star_gap(1.0, n, x)
        worst_excess = max(worst_excess, gap - bound)
    if worst_excess > 1e-15:
        return False, f"gap exceeded bound by {worst_excess:.2e}"
    gaps = [weak_star_gap(1.0, 2**j, Monomial(1, 1, 1))[0] for j in range(13)]
    ok = all(g1 >= g2 - 1e-15 for g1, g2 in zip(gaps, gaps[1:]))
    return ok, f"1000 samples within bound; dyadic gaps start {gaps[0]:.3f}, then max {max(gaps[1:]):.1e}"


_CRITERIA: dict[int, tuple[str, Callable[..., tuple[bool, str]]]] = {
    1: ("index-2 closed form", criterion_1),
    2: ("extremal-measure oracle", criterion_2),
    3: ("decomposition roundtrip", criterion_3),
    4: ("equilibrium identity", criterion_4),
    5: ("subconformality detection", criterion_5),
    6: ("pushforward lattice", criterion_6),
    7: ("projection identities", criterion_7),
    8: ("series-operator consistency", criterion_8),
    9: ("critical limit trend", criterion_9),
    10: ("symmetry action", criterion_10),
    11: ("quotient/level coherence", criterion_11),
    12: ("reconstruction formula", criterion_12),
    13: ("smooth-count oracle", criterion_13),
    14: ("Dickman function", criterion_14),
    15: ("Mertens trend", criterion_15),
    16: ("vanishing-sum trends", criterion_16),
    17: ("weak-* convergence bound", criterion_17),
}

ALL_CRITERIA = tuple(sorted(_CRITERIA))


def run_criterion(number: int, corrupt: bool = False) -> CriterionResult:
    name, fn = _CRITERIA[number]
    start = time.perf_counter()
    try:
        if number == 3:
            passed, detail = fn(corrupt=corrupt)
        else:
            passed, detail = fn()
    except Exception as err:  # a crash is a failure with the exception as witness
        passed, detail = False, f"raised {type(err).__name__}: {err}"
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def run_all(
    numbers: Iterable[int] | None = None, corrupt: int | None = None
) -> list[CriterionResult]:
    numbers = list(numbers) if numbers is not None else list(ALL_CRITERIA)
    for n in numbers:
        if n not in _CRITERIA:
            raise ValueError(f"unknown criterion {n}; valid: {list(ALL_CRITERIA)}")
    return [run_criterion(n, corrupt == n) for n in numbers]
