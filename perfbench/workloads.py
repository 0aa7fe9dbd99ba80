"""The four workloads: how each round's inputs are generated and how each output is checked.

A round is a fixed list of operations, one call into the program each.  Its
inputs come from ``random.Random`` seeded by (workload, seed, round index),
and they are built from the program's constructors only (``RootOfUnity``,
``AtomicMeasure``, ``Monomial``, ...), so generating them runs none of the
program's computations.  Every operation carries a check that compares its
output against :mod:`oracles` or against a property the mathematics
guarantees.

Two operations exercise known faults of the program and are named by their
``fault`` field.  Their inputs depend only on the round index, never on the
seed, so every round attempts exactly one of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable

import numpy as np

import oracles as O
from affkms import acceptance, algebra, arith, asymptotics, cli, measures, states
from affkms.algebra import AlgebraElement, Monomial
from affkms.arith import PrimeSet
from affkms.asymptotics import SequenceSpec
from affkms.measures import AtomicMeasure, RootOfUnity
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
)

GOLDEN = (math.sqrt(5) - 1) / 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Outcome:
    value: Any = None
    error: BaseException | None = None


@dataclass
class Op:
    """One call into the program.

    ``span`` names the layer function for the trace; ``counts`` holds work
    sizes computed from the inputs; ``derive`` reads further counts from the
    output.  ``check`` returns None when the outcome is right, else a reason.
    """

    span: str
    call: Callable[[], Any]
    check: Callable[[Outcome], str | None]
    counts: dict[str, float] = field(default_factory=dict)
    derive: Callable[[Any], dict[str, float]] | None = None
    fault: str | None = None


@dataclass
class ColdCall:
    """One CLI invocation in a fresh interpreter: its arguments and the check of its stdout."""

    argv: list[str]
    check: Callable[[int, str], str | None]


def spread(k: int, turns: float = 1.0) -> float:
    """A point of [0, 1) that depends only on the round index: 0 at round 0, distinct afterwards."""
    return (k * GOLDEN * turns) % 1.0


# ---- conversions between the program's measures and oracle atoms ----------


def to_measure(atoms: dict[Fraction, float]) -> AtomicMeasure:
    return AtomicMeasure({RootOfUnity(z.numerator, z.denominator): w for z, w in atoms.items()})


def to_atoms(nu: AtomicMeasure) -> dict[Fraction, float]:
    return {Fraction(z.num, z.den): w for z, w in nu.atoms().items()}


def primitive_roots(n: int) -> list[Fraction]:
    return [Fraction(j, n) for j in range(n) if math.gcd(j, n) == 1]


def random_probability(rng: random.Random, level: int) -> dict[Fraction, float]:
    raw = {Fraction(j, level): rng.random() + 0.05 for j in range(level)}
    total = sum(raw.values())
    return {z: w / total for z, w in raw.items()}


def random_coeffs(rng: random.Random, pool: list[int], must: int) -> dict[int, float]:
    ns = sorted({must} | {d for d in pool if rng.random() < 0.4})
    raw = [rng.random() + 0.05 for _ in ns]
    total = sum(raw)
    return {n: w / total for n, w in zip(ns, raw)}


# ---- generic checks -------------------------------------------------------


def raised(out: Outcome) -> str | None:
    if out.error is not None:
        return f"raised {type(out.error).__name__}: {out.error}"
    return None


def checked(fn: Callable[[Any], str | None]) -> Callable[[Outcome], str | None]:
    """A check of the returned value; an exception fails it."""

    def run(out: Outcome) -> str | None:
        return raised(out) or fn(out.value)

    return run


def near(got: float | complex, want: float | complex, tol: float, what: str) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what}: got {got!r}, want {want!r} (tol {tol:g})"


def atoms_match(want: dict[Fraction, float], tol: float, what: str):
    def fn(nu: AtomicMeasure) -> str | None:
        got = to_atoms(nu)
        diff = O.max_diff(got, want)
        if diff > tol:
            return f"{what}: max atom deviation {diff:.3e} > {tol:g}"
        return None

    return fn


def cli_json(check: Callable[[dict], str | None]) -> Callable[[int, str], str | None]:
    def fn(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        return check(json.loads(stdout))

    return fn


def json_atoms(doc: dict) -> dict[Fraction, float]:
    """The atoms of a measure in the CLI's JSON schema."""
    return {Fraction(a["num"], a["den"]): a["weight"] for a in doc["atoms"]}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in this process, with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---- certify: measures ----------------------------------------------------


def verifier_primes(level: int, window: int) -> list[int]:
    support = {p for p, _ in O.factor(level)}
    return sorted(support | {p for p in O.small_primes(window) if level % p})


def check_verdict(atoms, beta: float, level: int, window: int, should_pass: bool):
    def fn(verdict) -> str | None:
        want = verifier_primes(level, window)
        if list(verdict.primes_checked) != want:
            return f"checked primes {list(verdict.primes_checked)}, want {want}"
        if should_pass:
            return None if verdict.passed else f"subconformal input rejected: {verdict.witness}"
        if verdict.passed:
            return "non-subconformal input passed"
        F, atom, value = verdict.witness
        exact = O.apply_A_F_at(atoms, beta, tuple(F), Fraction(atom.num, atom.den))
        if value >= -1e-9:
            return f"witness value {value} is not a violation"
        return near(value, exact, 1e-12, f"witness value at F={F}, z={atom}")

    return fn


def subset_count(verdict) -> dict[str, float]:
    return {"measures.check_subconformal.subsets": 2.0 ** len(verdict.primes_checked)}


def check_decomposition(coeffs: dict[int, float], atoms, beta: float):
    def fn(lam: dict[int, float]) -> str | None:
        worst = max(abs(coeffs.get(n, 0.0) - lam.get(n, 0.0)) for n in set(coeffs) | set(lam))
        if worst > 1e-9:
            return f"coefficients off by {worst:.3e}"
        recon = O.max_diff(O.mixture_atoms(lam, beta), atoms)
        return None if recon <= 1e-9 else f"reconstruction off by {recon:.3e}"

    return fn


def check_noninvariant(atoms, beta: float):
    """A typed error is right (the input is not subconformal); so are coefficients that reconstruct it."""

    def fn(out: Outcome) -> str | None:
        if isinstance(out.error, ValueError):
            return None
        if out.error is not None:
            return raised(out)
        recon = O.max_diff(O.mixture_atoms(out.value, beta), atoms)
        if recon <= 1e-9:
            return None
        return f"decompose reported {out.value} but the reconstruction is off by {recon:.3e}"

    return fn


def check_t_beta(atoms, beta: float):
    def fn(result) -> str | None:
        image, tail = result
        exact = O.t_beta_image(atoms, beta)
        got = to_atoms(image)
        dist = sum(abs(got.get(z, 0.0) - exact.get(z, 0.0)) for z in set(got) | set(exact))
        if dist > tail + 1e-12:
            return f"distance {dist:.3e} to the Hurwitz image exceeds tail {tail:.3e} + 1e-12"
        return None

    return fn


def certify(rng: random.Random, k: int) -> list[Op]:
    ops: list[Op] = []
    for n in (720, 360, rng.randint(2, 240), rng.randint(2, 240)):
        beta = rng.uniform(0.05, 1.0)
        want = O.extremal_atoms(n, beta)

        def mass_and_atoms(nu, want=want, n=n):
            if abs(nu.mass() - 1.0) > 1e-12:
                return f"mass {nu.mass()!r} != 1"
            return atoms_match(want, 1e-12, f"nu_{n}")(nu)

        ops.append(Op("measures.extremal_measure", partial(measures.extremal_measure, n, beta),
                      checked(mass_and_atoms)))

    for n in (720, 360):
        beta = rng.uniform(0.4, 1.0)
        eps = to_measure({z: 1.0 / len(primitive_roots(n)) for z in primitive_roots(n)})
        scale = math.prod(1 - p**-beta for p, _ in O.factor(n))
        want = O.extremal_atoms(n, beta)
        ops.append(Op(
            "measures.apply_A_inv",
            partial(measures.apply_A_inv, eps, n, beta, level=n),
            checked(lambda nu, scale=scale, want=want, n=n:
                    atoms_match(want, 1e-10, f"inverse route at K={n}")(nu.scaled(scale))),
            counts={"measures.apply_A_inv.dense_mb": n * n * 8 / 2**20},
        ))

    # verifier: two extremal measures, a mixture, and two non-subconformal inputs
    beta = rng.uniform(0.3, 1.0)
    cases = [(O.extremal_atoms(30, beta), beta, 30, 41, True)]
    beta = rng.uniform(0.3, 1.0)
    cases.append((O.extremal_atoms(360, beta), beta, 360, 30, True))
    beta = rng.uniform(0.3, 1.0)
    coeffs = random_coeffs(rng, O.divisors(60), 60)
    cases.append((O.mixture_atoms(coeffs, beta), beta, 60, 30, True))
    half_beta = 1.0 - 0.5 * spread(k)
    cases.append(({Fraction(1, 2): 1.0}, half_beta, 2, 30, False))
    a = 0.7316 + 0.01 * (2 * spread(k, 2) - 1) * (k > 0)
    mix_beta = 0.7 + 0.01 * (2 * spread(k, 3) - 1) * (k > 0)
    noninvariant = {Fraction(0): a, Fraction(3, 5): 1.0 - a}
    cases.append((noninvariant, mix_beta, 5, 30, False))
    for atoms, b, level, window, should_pass in cases:
        ops.append(Op(
            "measures.check_subconformal",
            partial(measures.check_subconformal, to_measure(atoms), b, window),
            checked(check_verdict(atoms, b, level, window, should_pass)),
            derive=subset_count,
        ))

    for _ in range(3):
        beta = rng.uniform(0.3, 1.0)
        coeffs = random_coeffs(rng, O.divisors(360), 360)
        atoms = O.mixture_atoms(coeffs, beta)
        ops.append(Op("measures.decompose", partial(measures.decompose, to_measure(atoms), beta),
                      checked(check_decomposition(coeffs, atoms, beta))))
    ops.append(Op("measures.decompose", partial(measures.decompose, to_measure(noninvariant), mix_beta),
                  check_noninvariant(noninvariant, mix_beta), fault="decompose-noninvariant"))

    beta = rng.uniform(0.3, 1.0)
    for n in rng.sample(O.divisors(360), 4):
        nu = to_measure(O.extremal_atoms(n, beta))
        for d in rng.sample(range(1, 61), 4):
            want = O.extremal_atoms(n // math.gcd(n, d), beta)
            ops.append(Op("measures.pushforward", partial(measures.pushforward, nu, d),
                          checked(atoms_match(want, 1e-12, f"pushforward of nu_{n} by {d}"))))

    for _ in range(2):
        atoms = random_probability(rng, 12)
        ops.append(Op("measures.t_beta", partial(measures.t_beta, to_measure(atoms), 2.0, 100_000),
                      checked(check_t_beta(atoms, 2.0))))
    return ops


def certify_cold(rng: random.Random) -> ColdCall:
    n, beta = rng.randint(2, 60), round(rng.uniform(0.1, 1.0), 6)

    def fn(doc: dict) -> str | None:
        diff = O.max_diff(json_atoms(doc), O.extremal_atoms(n, beta))
        return None if diff <= 1e-12 else f"extremal-measure atoms off by {diff:.3e}"

    return ColdCall(["extremal-measure", "--n", str(n), "--beta", repr(beta)], cli_json(fn))


# ---- evaluate: states and algebra ----------------------------------------

SERIES = (LowTemp, QuotientChar, QZChar)


def state_oracle(spec, x) -> complex:
    """Value of the state on one monomial, from independently built moments (series: exact)."""
    if x.a != x.b:
        return 0j
    apow = float(x.a) ** -spec.beta
    if isinstance(spec, FiniteN):
        return apow * O.extremal_moment(spec.n, spec.beta, x.k)
    if isinstance(spec, LebesgueInf):
        return apow * (x.k == 0)
    if isinstance(spec, FromMeasure):
        return apow * O.moment(to_atoms(spec.nu), x.k)
    if isinstance(spec, LowTemp):
        return apow * O.series_moment(to_atoms(spec.eta), spec.beta, x.k)
    q = Fraction(x.x.num, x.x.den)
    if isinstance(spec, Quotient):
        return apow * O.extremal_moment(spec.m, spec.beta, int(q * spec.n))
    if isinstance(spec, QZSubgroup):
        return apow * O.extremal_moment(q.denominator // math.gcd(q.denominator, spec.m), spec.beta, 1)
    if isinstance(spec, QuotientChar):
        w = (Fraction(spec.zeta.num, spec.zeta.den) * int(q * spec.n)) % 1
        return apow * O.series_moment({w: 1.0}, spec.beta, 1)
    if isinstance(spec, QZChar):
        w = (Fraction(spec.chi.num, spec.chi.den) * int(q * spec.level)) % 1
        return apow * O.series_moment({w: 1.0}, spec.beta, 1)
    raise TypeError(spec)


def check_state(spec, x):
    series = isinstance(spec, SERIES)

    def fn(sv) -> str | None:
        want = state_oracle(spec, x)
        if series:
            if sv.tail is None:
                return "series value without a tail bound"
            return near(sv.value, want, sv.tail + 1e-12, f"{type(spec).__name__} on {x}")
        return near(sv.value, want, 1e-12, f"{type(spec).__name__} on {x}")

    return checked(fn)


def int_monomial(rng: random.Random) -> Monomial:
    a = rng.randint(1, 20)
    b = a if rng.random() < 0.8 else rng.randint(1, 20)
    return Monomial(a, rng.randint(-15, 15), b)


def qz_monomial(rng: random.Random, modulus: int) -> QZMonomial:
    q = rng.choice(O.divisors(modulus))
    a = rng.randint(1, 12)
    b = a if rng.random() < 0.8 else rng.randint(1, 12)
    return QZMonomial(a, RootOfUnity(*rng.choice([(j, q) for j in range(q) if math.gcd(j, q) == 1])), b)


def random_root(rng: random.Random, modulus: int) -> RootOfUnity:
    q = rng.choice([d for d in O.divisors(modulus) if d > 1])
    return RootOfUnity(rng.choice([j for j in range(q) if math.gcd(j, q) == 1]), q)


def squarefree(F: list[int]) -> list[int]:
    out = [1]
    for p in F:
        out += [d * p for d in out]
    return out


def projection(F: list[int]) -> AlgebraElement:
    return AlgebraElement({Monomial(d, 0, d): float(O.mobius(d)) for d in squarefree(F)})


CLOSED_EVALS = 500
SERIES_EVALS = 150
KMS_PAIRS = 300


def evaluate(rng: random.Random, k: int) -> list[Op]:
    lo = lambda: rng.uniform(0.3, 0.95)  # noqa: E731
    hi = lambda: rng.uniform(1.5, 3.0)  # noqa: E731
    beta_mix = lo()
    mixture = O.mixture_atoms(random_coeffs(rng, O.divisors(12), 12), beta_mix)
    modulus = rng.choice((12, 24, 30, 36, 60))
    integer_specs = [
        FiniteN(rng.randint(1, 60), lo()),
        LebesgueInf(lo()),
        FromMeasure(to_measure(mixture), beta_mix),
    ]
    qz_specs = [
        Quotient(modulus, rng.choice(O.divisors(modulus)), lo()),
        QZSubgroup(modulus, rng.choice(O.divisors(modulus)), lo()),
    ]
    series_int = LowTemp(to_measure(random_probability(rng, 12)), hi())
    series_qz = [
        QuotientChar(modulus, random_root(rng, modulus), hi()),
        QZChar(modulus, random_root(rng, modulus), hi()),
    ]

    ops: list[Op] = []

    def add_evals(spec, count, monomial):
        name = f"states.eval_state.{type(spec).__name__}"
        for _ in range(count):
            x = monomial()
            ops.append(Op(name, partial(states.eval_state, spec, x), check_state(spec, x)))

    for spec in integer_specs:
        add_evals(spec, CLOSED_EVALS, lambda: int_monomial(rng))
    for spec in qz_specs:
        add_evals(spec, CLOSED_EVALS, lambda: qz_monomial(rng, modulus))
    add_evals(series_int, SERIES_EVALS, lambda: int_monomial(rng))
    for spec in series_qz:
        add_evals(spec, SERIES_EVALS, lambda: qz_monomial(rng, modulus))

    for spec in integer_specs:
        for _ in range(KMS_PAIRS):
            x, y = int_monomial(rng), int_monomial(rng)
            ops.append(Op("states.kms_residual", partial(states.kms_residual, spec, x, y),
                          checked(lambda r: None if r <= 1e-10 else f"KMS residual {r:.3e} > 1e-10")))

    first = O.small_primes(20)
    for _ in range(4):
        F = sorted(rng.sample(first, rng.randint(3, 6)))
        want = projection(F)
        ops.append(Op("algebra.projection_eF", partial(algebra.projection_eF, PrimeSet.of(F)),
                      checked(lambda e, want=want: None if e.terms() == want.terms() else "e_F terms differ")))
        for spec in integer_specs:
            mass = math.prod(1 - p**-spec.beta for p in F)
            ops.append(Op("states.eval_element", partial(states.eval_element, spec, want),
                          checked(lambda sv, mass=mass: near(sv.value, mass, 1e-12, "e_F mass"))))
        # e_F is an idempotent killed by every V_p V_p^* with p in F
        ops.append(Op("algebra.mul", partial(AlgebraElement.__mul__, want, want),
                      checked(lambda e, want=want: None if e.terms() == want.terms() else "e_F e_F != e_F"),
                      counts={"algebra.mul.terms": len(want) ** 2}))
        p = rng.choice(F)
        rp = AlgebraElement({Monomial(p, 0, p): 1.0})
        ops.append(Op("algebra.mul", partial(AlgebraElement.__mul__, want, rp),
                      checked(lambda e: None if e.is_zero() else "e_F V_p V_p^* != 0"),
                      counts={"algebra.mul.terms": len(want)}))

    for F in ([2, 3], [2, 3, 5]):
        spec = FiniteN(rng.randint(2, 30), lo())
        kk = rng.randint(1, 6)
        want = O.extremal_moment(spec.n, spec.beta, kk)

        def recon(result, want=want):
            lhs, rhs, tail = result
            return near(lhs, want, 1e-12, "psi(U^k)") or near(rhs, lhs, tail + 1e-12, "compression series")

        ops.append(Op("states.reconstruct_check",
                      partial(states.reconstruct_check, spec, PrimeSet.of(F), kk, 10_000),
                      checked(recon)))

    level, beta = 24, lo()
    for m in O.divisors(level):
        for n in O.divisors(level):
            for _ in range(5):
                x = qz_monomial(rng, n)
                ops.append(Op("states.qz_coherence", partial(states.qz_coherence, level, m, n, beta, x),
                              checked(lambda r: near(r[0], r[1], 1e-12, "coherence gap"))))
    return ops


def evaluate_cold(rng: random.Random) -> ColdCall:
    n, beta = rng.randint(1, 60), round(rng.uniform(0.3, 0.95), 6)
    a = rng.randint(1, 20)
    x = Monomial(a, rng.randint(-15, 15), a)
    want = state_oracle(FiniteN(n, beta), x)

    def fn(doc: dict) -> str | None:
        return near(complex(doc["value"]["re"], doc["value"]["im"]), want, 1e-12, "eval-state")

    return ColdCall(["eval-state", "--state", f"finite:n={n},beta={beta!r}",
                     "--monomial", f"{x.a},{x.k},{x.b}"], cli_json(fn))


# ---- critical: arith near the pole, and asymptotics ----------------------


def check_limit(z: RootOfUnity, betas: list[float]):
    def fn(rows) -> str | None:
        if [b for b, _ in rows] != betas:
            return "rows do not follow the requested betas"
        for beta, dist in rows:
            err = near(dist, O.limit_distance(Fraction(z.num, z.den), beta), 1e-12, f"distance at beta={beta}")
            if err:
                return err
        dists = [d for _, d in rows]
        if not all(a > b for a, b in zip(dists, dists[1:])):
            return f"distances not strictly decreasing: {dists}"
        return None

    return checked(fn)


def check_hurwitz(beta: float, a: float):
    def fn(v: float) -> str | None:
        want = O.hurwitz(beta, a)
        return near(v, want, 1e-12 * abs(want), f"hurwitz_zeta({beta!r}, {a!r})")

    return checked(fn)


def check_psi(psi: O.PsiOracle, x: int, y: int):
    return checked(lambda v: near(v, psi.counts([(x, y)])[0], 0, f"Psi({x}, {y})"))


def check_delta(psi: O.PsiOracle, u: float, x: int):
    """s_max must follow the 0.25 ladder to the 10^9 cap, and the integral is
    recomputed from exact counts at every point delta_estimate visits."""

    def fn(est) -> str | None:
        log_cap = math.log(10**9) / math.log(x)
        s = u
        while s + 0.25 <= log_cap:
            s += 0.25
            if psi.counts([(int(x**s), x)])[0] / x**s < 1e-6:
                break
        if est.s_max != s or not est.truncated:
            return f"s_max {est.s_max} / truncated {est.truncated}, want {s} / True"
        grid = np.linspace(u, est.s_max, 64)
        points = [int(x**t) for t in grid]
        counts = psi.counts([(pt, x) for pt in points])
        vals = [c / x**t for c, t in zip(counts, grid)]
        integral = sum(0.5 * (grid[i + 1] - grid[i]) * (vals[i] + vals[i + 1]) for i in range(63))
        return near(est.value, integral, 1e-12 * abs(integral), f"delta_estimate({u}, {x})")

    return checked(fn)


def mertens_prefactor(n_primes: int) -> tuple[list[int], float]:
    """The first n primes and prod (1 - 1/p) over them."""
    ps = O.small_primes(100)[:n_primes]
    return ps, math.prod(1 - 1 / p for p in ps)


def check_smooth_sum(n_primes: int, values: Callable[[int], float], C: int):
    def fn(res) -> str | None:
        ps, pre = mertens_prefactor(n_primes)
        smooth = O.smooth_upto(ps, C)
        value = pre * math.fsum(values(m) / m for m in smooth)
        share = pre * (1 / pre - math.fsum(1 / m for m in smooth))
        return (near(res.value, value, 1e-12 * abs(value), "smooth harmonic sum")
                or near(res.truncation_share, share, 1e-12, "truncation share"))

    return checked(fn)


def check_wiener(theta: Fraction, n_primes: int, excluded: list[int], kk: int, C: int):
    def fn(v: complex) -> str | None:
        ps, pre = mertens_prefactor(n_primes)
        smooth = O.smooth_upto([p for p in ps if p not in excluded], C)
        want = pre * sum(O.moment({theta: 1.0}, m + kk) / m for m in smooth)
        return near(v, want, 1e-12, "wiener sum")

    return checked(fn)


def is_prime(m: int) -> bool:
    return m > 1 and all(m % p for p in range(2, math.isqrt(m) + 1))


def critical(rng: random.Random, k: int) -> list[Op]:
    psi = O.PsiOracle()
    ops: list[Op] = []
    z = RootOfUnity(rng.choice((1, 2)), 3)
    stretch = 1 + rng.uniform(0.0, 1e-3)
    betas = [1 + 10.0**-j * stretch for j in range(1, 8)]
    ops.append(Op("states.limit_beta1", partial(states.limit_beta1, z, betas), check_limit(z, betas)))

    for j in range(2, 7):
        for _ in range(2):
            beta, a = 1 + 10.0**-j * (1 + rng.uniform(0.0, 1e-3)), rng.uniform(0.05, 1.0)
            ops.append(Op("arith.hurwitz_zeta", partial(arith.hurwitz_zeta, beta, a), check_hurwitz(beta, a)))

    # the first two share their prime index (997 is the largest prime below 1009),
    # so they share _psi_memo entries; the third has y >= sqrt(x); the fourth is sieved
    shapes = [
        (rng.randint(9 * 10**8, 10**9), rng.randint(997, 1008)),
        (rng.randint(8 * 10**8, 9 * 10**8), rng.randint(997, 1008)),
        (rng.randint(4 * 10**7, 6 * 10**7), rng.randint(16_000, 17_880)),
        (rng.randint(5 * 10**6, 10**7), rng.randint(100, 200)),
    ]
    for x, y in shapes:
        ops.append(Op("asymptotics.psi_count", partial(asymptotics.psi_count, x, y), check_psi(psi, x, y)))

    u, x = rng.uniform(1.0, 1.2), rng.randint(293, 306)
    ops.append(Op("asymptotics.delta_estimate", partial(asymptotics.delta_estimate, u, x),
                  check_delta(psi, u, x)))

    # rho(2) = 1 - ln 2 in round 0; rho is 1 - ln u on [1, 2] and an integral on [2, 3]
    for u in (2.0 - 0.95 * spread(k), rng.uniform(2.0, 3.0)):
        ops.append(Op("asymptotics.dickman", partial(asymptotics.dickman, u),
                      checked(lambda v, u=u: near(v, O.dickman_rho(u), 1e-6, f"rho({u})"))))
    u_max = rng.uniform(15.0, 20.0)
    ops.append(Op("asymptotics.dickman_mass", partial(asymptotics.dickman_mass, u_max),
                  checked(lambda v: near(v, math.exp(O.EULER_GAMMA), 1e-3, "Dickman mass"))))

    for seq, values in ((SequenceSpec.const_one(), lambda m: 1.0),
                        (SequenceSpec.prime_indicator(), lambda m: float(is_prime(m)))):
        n_primes, C = rng.randint(6, 10), rng.randint(2 * 10**5, 10**6)
        ops.append(Op("asymptotics.smooth_harmonic_sum",
                      partial(asymptotics.smooth_harmonic_sum, n_primes, seq, C),
                      check_smooth_sum(n_primes, values, C)))
    theta = Fraction(rng.randint(1, 10), rng.randint(11, 30))
    n_primes, C, kk = rng.randint(6, 10), rng.randint(10**5, 10**6), rng.randint(-5, 5)
    excluded = [2] if rng.random() < 0.5 else []
    ops.append(Op("asymptotics.wiener_sum",
                  partial(asymptotics.wiener_sum, partial(O.moment, {theta: 1.0}), n_primes,
                          PrimeSet.of(excluded), 1, kk, C),
                  check_wiener(theta, n_primes, excluded, kk, C)))
    return ops


def critical_cold(rng: random.Random) -> ColdCall:
    x, y = rng.randint(10**5, 10**6), rng.randint(50, 500)
    want = int(O.psi_table(x, y)[x])
    return ColdCall(["psi-count", "--x", str(x), "--y", str(y)],
                    cli_json(lambda doc: near(doc["count"], want, 0, f"psi-count {x} {y}")))


# ---- selftest: acceptance and cli ----------------------------------------

CHEAP_CRITERIA = (1, 4, 7, 15, 17)


def check_suite(out: Outcome) -> str | None:
    if out.error is not None:
        return raised(out)
    code, _, stderr, doc = out.value
    if code != 0 or doc is None:
        return f"self-test exit {code}: {stderr.strip()}"
    if doc["passed"] != len(acceptance.ALL_CRITERIA) or doc["failed"]:
        return f"self-test passed {doc['passed']}, failed {doc['failed']}"
    return None


def criterion_times(value) -> dict[str, float]:
    doc = value[3]
    if doc is None:
        return {}
    return {f"acceptance.criterion_{r['criterion']:02d}.s": r["elapsed_s"] for r in doc["results"]}


def self_test(argv: list[str], report: str):
    code, out, err = run_cli(argv + ["--output", report])
    doc = None
    if os.path.exists(report):
        with open(report) as fh:
            doc = json.load(fh)
        os.remove(report)
    return code, out, err, doc


def check_inverse(beta: float):
    """Exit 0 with the closed-form measure, or exit 1 or 2 with a one-line message."""

    def fn(out: Outcome) -> str | None:
        if out.error is not None:
            return f"traceback: {type(out.error).__name__}: {out.error}"
        code, stdout, stderr = out.value
        if code in (1, 2):
            return None if stderr.count("\n") <= 1 else "multi-line error message"
        if code != 0:
            return f"exit {code}"
        diff = O.max_diff(json_atoms(json.loads(stdout)), O.extremal_atoms(840, beta))
        return None if diff <= 1e-10 else f"inverse route off by {diff:.3e}"

    return fn


def selftest(rng: random.Random, k: int) -> list[Op]:
    # round 0 runs the suite as users do (the peak RSS is read after it); later rounds reorder it
    order = list(acceptance.ALL_CRITERIA)
    if k:
        rng.shuffle(order)
    os.makedirs(OUT_DIR, exist_ok=True)
    report = os.path.join(OUT_DIR, f"selftest-{os.getpid()}-{k}.json")
    ops = [Op("cli.main", partial(self_test, ["self-test", "--criteria", ",".join(map(str, order))], report),
              check_suite, derive=criterion_times)]
    pair = [3, rng.choice(CHEAP_CRITERIA)] if k else [3]
    rng.shuffle(pair)
    corrupt = ["self-test", "--criteria", ",".join(map(str, pair)), "--corrupt", "3"]
    ops.append(Op("cli.main", partial(run_cli, corrupt),
                  checked(lambda r: None if r[0] == 2 else f"corrupted suite exit {r[0]}, want 2")))
    beta = 0.001 * (1 + 0.1 * (2 * spread(k) - 1) * (k > 0))
    inverse = ["extremal-measure", "--route", "inverse", "--n", "840", "--beta", repr(beta)]
    ops.append(Op("cli.main", partial(run_cli, inverse), check_inverse(beta), fault="cli-inverse-smallbeta"))
    return ops


# ---- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random, int], list[Op]]
    cold: Callable[[random.Random], ColdCall]


WORKLOADS = {
    "certify": Workload(certify, certify_cold),
    "evaluate": Workload(evaluate, evaluate_cold),
    "critical": Workload(critical, critical_cold),
    "selftest": Workload(selftest, evaluate_cold),
}

# process-wide caches of the program, cleared before every round so each round starts cold
CACHES = {
    "arith.factor_cache": (arith, "_factor_tuple"),
    "states.h_beta_cache": (states, "h_beta"),
    "asymptotics.raw_grid": (asymptotics, "_raw_grid"),
    "asymptotics.psi_memo": (asymptotics, "_psi_memo"),
}


def clear_caches() -> None:
    for module, name in CACHES.values():
        obj = getattr(module, name, None)
        clear = getattr(obj, "cache_clear", None) or getattr(obj, "clear", None)
        if clear is not None:
            clear()


def cache_stats() -> dict[str, float]:
    """Hits and misses of the lru caches and the size of the Psi memo, since the last clear."""
    out: dict[str, float] = {}
    for key, (module, name) in CACHES.items():
        obj = getattr(module, name, None)
        if hasattr(obj, "cache_info"):
            info = obj.cache_info()
            out[f"{key}.hits"], out[f"{key}.misses"] = info.hits, info.misses
        elif isinstance(obj, dict):
            out[f"{key}.entries"] = len(obj)
    return out
