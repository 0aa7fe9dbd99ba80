"""Shows that the benchmark's checks can fail and that its oracles are right.

    python3 perfbench/selfcheck.py

For each workload it builds round 0 of seed 0, runs every operation once,
and confirms that the check accepts the real output (the known faults
excepted) and rejects a perturbed copy of it, the way ``self-test --corrupt``
shows that the acceptance suite can fail.  It then compares the oracles with
known values.  It exits 1 if any check let a perturbed output through, or
any oracle missed a known value.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from affkms.algebra import AlgebraElement, Monomial  # noqa: E402
from affkms.asymptotics import DeltaEstimate, SmoothSum  # noqa: E402
from affkms.measures import AtomicMeasure, SubconformalVerdict  # noqa: E402
from affkms.states import StateValue  # noqa: E402


# what each known fault's operation should return once the program is fixed
FIXED = {
    "decompose-noninvariant": W.Outcome(error=ValueError("measure is not constant on Galois orbits")),
    "cli-inverse-smallbeta": W.Outcome(value=(1, "", "error: A_inv solve residual 1.16e-06 exceeds 1e-9\n")),
}


def perturb(value):
    """A copy of an output with an error larger than its check's tolerance."""
    if isinstance(value, AtomicMeasure):
        atoms = value.atoms()
        z = min(atoms)
        atoms[z] += 1e-6
        return AtomicMeasure(atoms)
    if isinstance(value, SubconformalVerdict):
        if value.passed:
            return dataclasses.replace(value, passed=False)
        F, z, v = value.witness
        return dataclasses.replace(value, witness=(F, z, v - 1e-9))
    if isinstance(value, StateValue):
        return StateValue(value.value + 1e-9 + 2 * (value.tail or 0.0), value.tail)
    if isinstance(value, AlgebraElement):
        return value + AlgebraElement({Monomial(1, 1, 1): 1.0})
    if isinstance(value, DeltaEstimate):
        return value._replace(value=value.value * (1 + 1e-9))
    if isinstance(value, SmoothSum):
        return value._replace(value=value.value * (1 + 1e-9))
    if isinstance(value, dict):  # decompose coefficients
        n = min(value)
        return {**value, n: value[n] + 1e-6}
    if isinstance(value, list):  # limit_beta1 rows
        return [(b, d + 1e-9) for b, d in value]
    if isinstance(value, bool):
        raise TypeError("no perturbation for bool")
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + max(2e-3, abs(value) * 1e-9)
    if isinstance(value, complex):
        return value + 1e-9
    if isinstance(value, tuple):
        if len(value) == 4:  # self-test: code, stdout, stderr, report
            code, out, err, doc = value
            if doc is None:
                return (0 if code else 2, out, err, doc)
            return (code, out, err, {**doc, "passed": doc["passed"] - 1, "failed": 1})
        if len(value) == 3 and isinstance(value[0], int):  # a CLI call: code, stdout, stderr
            return (0 if value[0] else 2, value[1], value[2])
        if len(value) == 3:  # reconstruct_check: lhs, rhs, tail
            lhs, rhs, tail = value
            return (lhs, rhs + 2 * tail + 1e-9, tail)
        if isinstance(value[0], AtomicMeasure):  # t_beta: image, tail
            image, tail = value
            atoms = image.atoms()
            atoms[min(atoms)] += 2 * tail + 1e-6
            return (AtomicMeasure(atoms), tail)
        lhs, rhs = value  # qz_coherence
        return (lhs, rhs + 1e-9)
    raise TypeError(f"no perturbation for {type(value).__name__}")


def check_workload(name: str) -> list[str]:
    problems = []
    wl = W.WORKLOADS[name]
    rng = random.Random(f"{name}:0:0")
    W.clear_caches()
    ops = wl.build(rng, 0)
    rejected: Counter[str] = Counter()
    for op in ops:
        try:
            out = W.Outcome(value=op.call())
        except Exception as err:  # the outcome under test
            out = W.Outcome(error=err)
        verdict = op.check(out)
        if verdict is not None and op.fault is None:
            problems.append(f"{name} {op.span}: real output rejected: {verdict}")
            continue
        if op.fault is not None:
            if op.check(FIXED[op.fault]) is not None:
                problems.append(f"{name} {op.fault}: the check rejects the corrected outcome")
            if out.error is not None:
                rejected[op.span] += 1
                continue
        if op.check(W.Outcome(value=perturb(out.value))) is None:
            problems.append(f"{name} {op.span}: perturbed output accepted")
        else:
            rejected[op.span] += 1
    cold = wl.cold(rng)
    code, stdout, _ = W.run_cli(cold.argv)
    if cold.check(code, stdout) is not None or cold.check(1, stdout) is None:
        problems.append(f"{name} cold CLI check does not separate exit 0 from exit 1")
    print(f"{name}: {sum(rejected.values())} of {len(ops)} perturbed outputs rejected "
          + ", ".join(f"{k} {v}" for k, v in sorted(rejected.items())))
    return problems


def check_oracles() -> list[str]:
    psi = O.PsiOracle()
    rows = [
        ("zeta(2) = pi^2/6", O.hurwitz(2.0, 1.0), math.pi**2 / 6, 1e-15),
        ("Psi(10^6, 1000) = 344299 by sieve", int(O.psi_table(10**6, 1000)[10**6]), 344299, 0),
        ("Psi(10^6, 1000) by recursion", psi.recursive(10**6, 1000), 344299, 0),
        ("Psi(10^6, 1000) by Lucy counting", psi.lucy(10**6, 1000), 344299, 0),
        ("rho(2) = 1 - ln 2", O.dickman_rho(2.0), 1 - math.log(2), 1e-15),
        ("rho(3) = 0.0486083882911316", O.dickman_rho(3.0), 0.0486083882911316, 1e-14),
        ("residue weights sum to 1", math.fsum(O.residue_weights(12, 1.7)), 1.0, 1e-14),
        ("Ramanujan-sum moment = atom moment",
         O.extremal_moment(360, 0.7, 84), O.moment(O.extremal_atoms(360, 0.7), 84).real, 1e-12),
        ("A_F at a witness: (A_2 d_1/2)({1}) = -2^-beta",
         O.apply_A_F_at({Fraction(1, 2): 1.0}, 0.8, (2,), Fraction(0)), -(2**-0.8), 1e-15),
    ]
    problems = []
    for what, got, want, tol in rows:
        ok = abs(got - want) <= tol
        print(f"oracle {'ok ' if ok else 'BAD'} {what}: {got!r}")
        if not ok:
            problems.append(f"oracle {what}: got {got!r}, want {want!r}")
    return problems


def main() -> int:
    problems = []
    for name in W.WORKLOADS:
        problems += check_workload(name)
    problems += check_oracles()
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
