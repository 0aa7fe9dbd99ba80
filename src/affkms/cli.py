"""Command-line surface: one subcommand per operation, JSON/CSV output.

Exit codes: 0 on success, 2 when a checked contract or a numerical guard is
violated (the witness is printed), 1 on usage errors.  Each subcommand takes
--output and only the shared options it reads; config precedence is flags,
then AFFKMS_* environment variables, then defaults.  Output is deterministic
for a fixed seed and config; NaN/inf never reach the serializer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import fields
from typing import NamedTuple

from . import acceptance
from .arith import PrimeSet, first_primes, partial_zeta
from .algebra import Monomial, projection_eF
from .measures import (
    AtomicMeasure,
    NotOrbitInvariantError,
    NotSubconformalError,
    RootOfUnity,
    check_subconformal,
    decompose,
    epsilon,
    extremal_measure,
    apply_A_inv,
    measure_from_dict,
    measure_to_dict,
    pushforward,
    root,
    t_beta,
)
from .states import (
    INTEGER_FAMILY,
    KMS_FAMILY,
    FiniteN,
    FromMeasure,
    LebesgueInf,
    LowTemp,
    QZChar,
    QZMonomial,
    QZSubgroup,
    Quotient,
    QuotientChar,
    apply_kappa,
    coherence_sweep,
    eval_element,
    eval_state,
    kms_sweep,
    limit_beta1,
    reconstruct_check,
    superposition_check,
)
from .asymptotics import (
    SequenceSpec,
    delta_estimate,
    density_sum,
    dickman,
    dickman_mass,
    mertens_product,
    psi_count,
    smooth_harmonic_sum,
    wiener_sum,
)


class UsageError(Exception):
    pass


class ContractViolation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _env(name, default, cast):
    raw = os.environ.get(f"AFFKMS_{name}")
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as err:
        raise UsageError(f"bad AFFKMS_{name}={raw!r}: {err}") from None


class Report(NamedTuple):
    """What a handler hands to :func:`main`: the JSON document (None prints nothing),
    an optional (header, rows) table printed instead with ``--format csv``, and the
    message of a violated contract, which makes the exit code 2 after the output."""

    doc: dict | None
    table: tuple[tuple[str, ...], list[tuple]] | None = None
    violation: str | None = None


def _emit(report: Report, args) -> None:
    if report.table is not None and getattr(args, "format", "json") == "csv":
        header, rows = report.table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    elif report.doc is not None:
        try:
            text = json.dumps(report.doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as err:
            raise ContractViolation(f"non-finite value in output: {err}") from None
    else:
        return
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---- input parsing -------------------------------------------------------


def _parse_root(text: str):
    try:
        num, den = text.split("/")
        return root(int(num), int(den))
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad circle point {text!r} (want p/q): {err}") from None


def _parse_monomial(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"bad monomial {text!r} (want a,k,b or a,p/q,b)")
    a, mid, b = parts
    try:
        if "/" in mid:
            return QZMonomial(int(a), _parse_root(mid), int(b))
        return Monomial(int(a), int(mid), int(b))
    except ValueError as err:
        raise UsageError(f"bad monomial {text!r}: {err}") from None


def _parse_primes(text: str) -> PrimeSet:
    try:
        items = [int(p) for p in text.split(",") if p.strip()]
        return PrimeSet.of(items)
    except ValueError as err:
        raise UsageError(f"bad prime set {text!r}: {err}") from None


def _load_measure(path: str) -> AtomicMeasure:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"measure file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise UsageError(
            f"malformed JSON in {path} at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    try:
        return measure_from_dict(doc)
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"bad measure schema in {path}: {err}") from None


def _beta(text: str) -> float:
    beta = float(text)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    return beta


# kind -> (spec class, {field: parser}), the fields in the order the class takes them
_STATE_KINDS = {
    "finite": (FiniteN, {"n": int, "beta": _beta}),
    "lebesgue": (LebesgueInf, {"beta": _beta}),
    "measure": (FromMeasure, {"file": _load_measure, "beta": _beta}),
    "lowtemp": (LowTemp, {"file": _load_measure, "beta": _beta}),
    "quotient": (Quotient, {"n": int, "m": int, "beta": _beta}),
    "quotient-char": (QuotientChar, {"n": int, "zeta": _parse_root, "beta": _beta}),
    "qz": (QZSubgroup, {"level": int, "m": int, "beta": _beta}),
    "qz-char": (QZChar, {"level": int, "chi": _parse_root, "beta": _beta}),
}


def _parse_state(text: str):
    """State mini-language, e.g. finite:n=2,beta=1 or measure:beta=0.5,file=nu.json."""
    kind, _, rest = text.partition(":")
    fields = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise UsageError(f"bad state field {item!r} in {text!r}")
            fields[key.strip()] = value.strip()
    if kind not in _STATE_KINDS:
        raise UsageError(f"unknown state kind {kind!r}; expected {'|'.join(_STATE_KINDS)}")
    spec_class, parsers = _STATE_KINDS[kind]
    missing = [name for name in parsers if name not in fields]
    if missing:
        raise UsageError(f"state {kind!r} needs fields {missing}")
    unknown = sorted(set(fields) - set(parsers))
    if unknown:
        raise UsageError(f"state {kind!r} takes no fields {unknown}")
    try:
        return spec_class(*(parse(fields[name]) for name, parse in parsers.items()))
    except ValueError as err:
        raise UsageError(f"bad state {text!r}: {err}") from None


def _state_for(text: str, command: str, classes: tuple[type, ...]):
    """A --state for a subcommand that works only with the state classes given."""
    spec = _parse_state(text)
    if not isinstance(spec, classes):
        kinds = [f"{kind}:..." for kind, (cls, _) in _STATE_KINDS.items() if cls in classes]
        raise UsageError(f"{command} works with {', '.join(kinds[:-1])} or {kinds[-1]} states")
    return spec


def _describe_spec(spec) -> dict:
    doc = {"kind": type(spec).__name__}
    for field in fields(spec):
        value = getattr(spec, field.name)
        if isinstance(value, AtomicMeasure):
            doc["measure_level"] = value.support_level()
        else:
            doc[field.name] = str(value) if isinstance(value, RootOfUnity) else value
    return doc


def _describe_monomial(x) -> dict:
    if isinstance(x, QZMonomial):
        return {"a": x.a, "x": str(x.x), "b": x.b}
    return {"a": x.a, "k": x.k, "b": x.b}


# ---- subcommand handlers -------------------------------------------------


def _state_report(spec, x) -> Report:
    try:
        sv = eval_state(spec, x)
    except TypeError as err:  # a monomial of the kind the family does not take
        raise UsageError(str(err)) from None
    doc = {
        "spec": _describe_spec(spec),
        "monomial": _describe_monomial(x),
        "value": {"re": sv.value.real, "im": sv.value.imag},
    }
    if sv.tail is not None:
        doc["tail_bound"] = sv.tail
    return Report(doc)


def cmd_eval_state(args):
    return _state_report(_parse_state(args.state), _parse_monomial(args.monomial))


def cmd_kms_check(args):
    spec = _state_for(args.state, "kms-check", KMS_FAMILY)
    worst, witness = kms_sweep(spec, args.pairs, random.Random(args.seed))
    doc = {
        "spec": _describe_spec(spec),
        "pairs": args.pairs,
        "seed": args.seed,
        "max_residual": worst,
        "tolerance": args.tol,
        "ok": worst <= args.tol,
    }
    if witness is not None:
        doc["worst_pair"] = [_describe_monomial(witness[0]), _describe_monomial(witness[1])]
    return Report(doc, violation=None if doc["ok"] else
                  f"residual {worst:.3e} > {args.tol:.3e} at {witness}")


def cmd_decompose(args):
    nu = _load_measure(args.measure)
    try:
        lam = decompose(nu, args.beta, tol=args.tol)
    except NotSubconformalError as err:
        return Report({"ok": False, "diagnostic": "not subconformal",
                       "witness_index": err.witness_n,
                       "witness_coefficient": err.coefficients[err.witness_n]},
                      violation=str(err))
    except NotOrbitInvariantError as err:
        return Report({"ok": False, "diagnostic": "not constant on the roots of each order",
                       "witness_atom": str(err.atom), "witness_weight": err.weight,
                       "expected_weight": err.expected}, violation=str(err))
    return Report({
        "beta": args.beta,
        "coefficients": {str(n): w for n, w in sorted(lam.items())},
        "mass": nu.mass(),
        "ok": True,
    })


def cmd_check_subconformal(args):
    nu = _load_measure(args.measure)
    verdict = check_subconformal(nu, args.beta, args.prime_bound, tol=args.tol)
    doc = {
        "beta": args.beta,
        "prime_bound": args.prime_bound,
        "passed": verdict.passed,
        "primes_checked": list(verdict.primes_checked),
        "note": verdict.note,
    }
    if verdict.witness is not None:
        F, atom, value = verdict.witness
        doc["witness"] = {"primes": list(F), "atom": str(atom), "value": value}
    return Report(doc, violation=None if verdict.passed else
                  f"not subconformal: witness {verdict.witness}")


def cmd_extremal_measure(args):
    if args.route == "closed":
        nu = extremal_measure(args.n, args.beta)
    else:
        scale = math.prod(1 - p**-args.beta for p in PrimeSet.dividing(args.n))
        nu = apply_A_inv(epsilon(args.n), args.n, args.beta, level=args.n).scaled(scale)
    return Report(measure_to_dict(nu))


def cmd_pushforward(args):
    return Report(measure_to_dict(pushforward(_load_measure(args.measure), args.d)))


def cmd_t_beta(args):
    out, tail = t_beta(_load_measure(args.measure), args.beta, args.truncation)
    return Report({"measure": measure_to_dict(out), "tail_mass": tail})


def cmd_limit_beta1(args):
    z = _parse_root(args.z)
    rows = limit_beta1(z, [1 + 10.0**-j for j in range(1, args.jmax + 1)])
    dists = [d for _, d in rows]
    monotone = all(a >= b for a, b in zip(dists, dists[1:]))
    # the CSV labels are repr(beta), as in the JSON: 7 decimals would merge the rows j >= 8
    return Report(
        {"z": str(z), "rows": [{"beta": b, "distance": d} for b, d in rows]},
        table=(("beta", "tv_distance", "trend"), [(b, d, "decreasing") for b, d in rows]),
        violation=None if monotone else f"distance sequence not monotone: {dists}",
    )


def cmd_superposition_check(args):
    dev, tail = superposition_check(args.n, args.beta)
    ok = dev <= tail + 1e-12
    return Report({"n": args.n, "beta": args.beta, "max_deviation": dev, "tail_bound": tail,
                   "ok": ok},
                  violation=None if ok else f"deviation {dev:.3e} exceeds tail {tail:.3e}")


def cmd_kappa(args):
    x = _parse_monomial(args.monomial)
    if not isinstance(x, Monomial):
        raise UsageError("kappa acts on integer monomials a,k,b")
    return Report({"b": args.b, "monomial": _describe_monomial(apply_kappa(args.b, x))})


def cmd_quotient_eval(args):
    if args.zeta is not None:
        spec = QuotientChar(args.n, _parse_root(args.zeta), args.beta)
    elif args.m is None:
        raise UsageError("quotient-eval needs --m (divisor state) or --zeta (character state)")
    else:
        spec = Quotient(args.n, args.m, args.beta)
    return _state_report(spec, _parse_monomial(args.monomial))


def cmd_qz_coherence(args):
    ms = None if args.subgroup is None else [args.subgroup]
    worst, witness, checks = coherence_sweep(
        args.level, args.beta, args.count, random.Random(args.seed), ms
    )
    doc = {
        "level": args.level,
        "beta": args.beta,
        "checks": checks,
        "seed": args.seed,
        "max_gap": worst,
        "tolerance": args.tol,
        "ok": worst <= args.tol,
    }
    if witness is not None:
        m, n, x = witness
        witness = (m, n, _describe_monomial(x))
        doc["worst_case"] = {"m": m, "n": n, "monomial": witness[2]}
    return Report(doc, violation=None if doc["ok"] else f"coherence gap {worst:.3e} at {witness}")


def cmd_reconstruct(args):
    spec = _state_for(args.state, "reconstruct", (FiniteN, FromMeasure))
    F = _parse_primes(args.f)
    lhs, rhs, tail = reconstruct_check(spec, F, args.k, args.truncation)
    gap = abs(lhs - rhs)
    ok = gap <= tail + 1e-12
    return Report({"k": args.k, "primes": list(F.primes), "lhs": lhs, "rhs": rhs,
                   "tail_bound": tail, "ok": ok},
                  violation=None if ok else f"reconstruction gap {gap:.3e} exceeds tail {tail:.3e}")


def cmd_e_f_mass(args):
    # e_F is a sum of integer monomials, which the Q/Z families do not take
    spec = _state_for(args.state, "e-f-mass", INTEGER_FAMILY + (Quotient, QuotientChar))
    F = _parse_primes(args.f)
    beta = spec.beta
    got = eval_element(spec, projection_eF(F)).value
    expected = 1.0 / partial_zeta(F, beta) if len(F) else 1.0
    deviation = abs(got - expected)
    ok = deviation <= args.tol
    return Report({"primes": list(F.primes), "beta": beta, "value": got.real,
                   "expected": expected, "deviation": deviation, "ok": ok},
                  violation=None if ok else f"projection mass deviation {deviation:.3e}")


def cmd_psi_count(args):
    return Report({"x": args.x, "y": args.y, "count": psi_count(args.x, args.y)})


def cmd_dickman(args):
    return Report({"u": args.u, "h": args.h, "rho": dickman(args.u, args.h)})


def cmd_dickman_mass(args):
    mass = dickman_mass(args.u_max, args.h)
    target = math.exp(0.5772156649015329)
    return Report({"u_max": args.u_max, "h": args.h, "mass": mass, "e_gamma": target,
                   "error": abs(mass - target)})


def cmd_mertens(args):
    r = mertens_product(args.x)
    return Report({"x": args.x, "product": r.product, "scaled": r.scaled, "rel_dev": r.rel_dev},
                  table=(("x", "scaled", "rel_dev"), [(args.x, r.scaled, r.rel_dev)]))


_SEQUENCES = {
    "const1": SequenceSpec.const_one,
    "const0": SequenceSpec.const_zero,
    "primes": SequenceSpec.prime_indicator,
    "squares": SequenceSpec.square_indicator,
}


def cmd_smooth_sum(args):
    if args.sequence not in _SEQUENCES:
        raise UsageError(f"unknown sequence {args.sequence!r}; options: {sorted(_SEQUENCES)}")
    seq = _SEQUENCES[args.sequence]()
    if not args.trend:
        value, share = smooth_harmonic_sum(args.n_primes, seq, args.c)
        return Report({"sequence": args.sequence, "n_primes": args.n_primes, "c": args.c,
                       "value": value, "truncation_share": share})
    rows = [(n, v, "decreasing") for n, v in density_sum(seq, args.n_primes, args.c)]
    return Report({"sequence": args.sequence,
                   "rows": [{"n_primes": n, "value": v} for n, v, _ in rows]},
                  table=(("n_primes", "value", "trend"), rows))


_NU_HATS = {
    "lebesgue": {0: 1.0},
    "cos": {0: 1.0, 1: 0.5, -1: 0.5},
    "cos-half": {0: 1.0, 1: 0.25, -1: 0.25},
    "half-turn": lambda m: (-1.0) ** m,
}


def cmd_wiener_sum(args):
    if args.nu_hat in _NU_HATS:
        nu_hat = _NU_HATS[args.nu_hat]
    else:
        try:
            with open(args.nu_hat) as fh:
                raw = json.load(fh)
            nu_hat = {int(k): complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                      for k, v in raw.items()}
        except FileNotFoundError:
            raise UsageError(
                f"unknown moment preset or file {args.nu_hat!r}; presets: {sorted(_NU_HATS)}"
            ) from None
        except (json.JSONDecodeError, ValueError, TypeError) as err:
            raise UsageError(f"bad moments file {args.nu_hat!r}: {err}") from None
    B = _parse_primes(args.b) if args.b else PrimeSet.of([])
    if not args.trend:
        v = wiener_sum(nu_hat, args.n_primes, B, args.ell, args.k, args.c)
        return Report({"n_primes": args.n_primes, "ell": args.ell, "k": args.k, "c": args.c,
                       "value": {"re": v.real, "im": v.imag}, "abs": abs(v)})
    first_primes(args.n_primes)  # refuses a negative count, which the range below would skip
    trend = "vanishing" if args.nu_hat != "half-turn" else "bounded-away"
    rows = [(n, abs(wiener_sum(nu_hat, n, B, args.ell, args.k, args.c)), trend)
            for n in range(3, args.n_primes + 1)]
    return Report({"rows": [{"n_primes": n, "abs_value": v} for n, v, _ in rows]},
                  table=(("n_primes", "abs_value", "trend"), rows))


def cmd_delta_estimate(args):
    est = delta_estimate(args.u, args.x)
    return Report({"u": args.u, "x": args.x, "value": est.value, "s_max": est.s_max,
                   "truncated": est.truncated})


def cmd_self_test(args):
    numbers = None
    if args.criteria:
        try:
            numbers = [int(t) for t in args.criteria.split(",") if t.strip()]
        except ValueError as err:
            raise UsageError(f"bad criteria list {args.criteria!r}: {err}") from None
    results = acceptance.run_all(numbers, corrupt=args.corrupt)
    for r in results:
        print(r.line())
    failed = sum(not r.passed for r in results)
    doc = {
        "passed": len(results) - failed,
        "failed": failed,
        "results": [
            {"criterion": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail, "elapsed_s": round(r.elapsed, 3)}
            for r in results
        ],
    }
    return Report(doc if args.output else None,
                  violation=f"{failed} criteria failed" if failed else None)


# ---- command table -------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


def _shared_options() -> dict:
    """The options several subcommands share; an AFFKMS_* variable sets each default."""
    return {
        "tol": _arg("--tol", type=float, default=_env("TOL", 1e-10, float),
                    help="comparison tolerance (default 1e-10)"),
        "truncation": _arg("--truncation", type=int, default=_env("TRUNCATION", 100_000, int),
                           help="series truncation bound (default 1e5)"),
        "prime_bound": _arg("--prime-bound", type=int, default=_env("PRIME_BOUND", 30, int),
                            help="extra-prime window of the verifier (default 30)"),
        "seed": _arg("--seed", type=int, default=_env("SEED", 20_260_811, int),
                     help="seed for random probes"),
        "format": _arg("--format", choices=("json", "csv"), default=_env("FORMAT", "json", str),
                       help="output format"),
        "output": _arg("--output", default=_env("OUTPUT", None, str),
                       help="output path (default: stdout)"),
    }


# name -> (handler, help, shared options it reads besides --output, its own arguments)
COMMANDS = {
    "eval-state": (cmd_eval_state, "evaluate a state on one monomial", (), [
        _arg("--state", required=True, help="e.g. finite:n=2,beta=1"),
        _arg("--monomial", required=True, help="a,k,b (or a,p/q,b for Q/Z)"),
    ]),
    "kms-check": (cmd_kms_check, "equilibrium identity residual over random pairs",
                  ("tol", "seed"), [
        _arg("--state", required=True),
        _arg("--pairs", type=int, default=1000),
    ]),
    "decompose": (cmd_decompose, "convex decomposition into extremal measures", ("tol",), [
        _arg("--beta", type=float, required=True),
        _arg("--measure", required=True, help="measure JSON file"),
    ]),
    "check-subconformal": (cmd_check_subconformal, "bounded subconformality verifier",
                           ("tol", "prime_bound"), [
        _arg("--beta", type=float, required=True),
        _arg("--measure", required=True),
    ]),
    "extremal-measure": (cmd_extremal_measure, "the index-n extremal measure", (), [
        _arg("--n", type=int, required=True),
        _arg("--beta", type=float, required=True),
        _arg("--route", choices=("closed", "inverse"), default="closed"),
    ]),
    "pushforward": (cmd_pushforward, "wrap-around image of a measure", (), [
        _arg("--measure", required=True),
        _arg("--d", type=int, required=True),
    ]),
    "t-beta": (cmd_t_beta, "truncated low-temperature series image", ("truncation",), [
        _arg("--measure", required=True),
        _arg("--beta", type=float, required=True),
    ]),
    "limit-beta1": (cmd_limit_beta1, "distance to uniform as beta drops to 1", ("format",), [
        _arg("--z", required=True, help="root of unity p/q"),
        _arg("--jmax", type=int, default=6, help="betas 1 + 10^-j for j = 1..jmax"),
    ]),
    "superposition-check": (cmd_superposition_check,
                            "closed form vs uniform superposition of point states (beta > 1)", (), [
        _arg("--n", type=int, required=True),
        _arg("--beta", type=float, required=True),
    ]),
    "kappa": (cmd_kappa, "apply the U -> U^b symmetry to a monomial", (), [
        _arg("--b", type=int, required=True),
        _arg("--monomial", required=True),
    ]),
    "quotient-eval": (cmd_quotient_eval, "finite-quotient state evaluation", (), [
        _arg("--n", type=int, required=True, help="modulus"),
        _arg("--beta", type=float, required=True),
        _arg("--m", "--subgroup", dest="m", type=int, default=None,
             help="divisor index of the subgroup state (beta <= 1)"),
        _arg("--zeta", default=None, help="root of unity p/q (beta > 1)"),
        _arg("--monomial", required=True),
    ]),
    "qz-coherence": (cmd_qz_coherence, "level-restriction coherence sweep", ("tol", "seed"), [
        _arg("--level", type=int, required=True),
        _arg("--beta", type=float, required=True),
        _arg("--count", type=int, default=20, help="monomials per (m, n) pair"),
        _arg("--subgroup", type=int, default=None,
             help="restrict the sweep to one subgroup divisor m"),
    ]),
    "reconstruct": (cmd_reconstruct, "compression-series reconstruction check", ("truncation",), [
        _arg("--state", required=True),
        _arg("--f", required=True, help="prime set, e.g. 2,3"),
        _arg("--k", type=int, required=True),
    ]),
    "e-f-mass": (cmd_e_f_mass, "state mass of the smooth projection e_F", ("tol",), [
        _arg("--state", required=True),
        _arg("--f", required=True),
    ]),
    "psi-count": (cmd_psi_count, "exact smooth-number count", (), [
        _arg("--x", type=int, required=True),
        _arg("--y", type=int, required=True),
    ]),
    "dickman": (cmd_dickman, "Dickman rho at a point", (), [
        _arg("--u", type=float, required=True),
        _arg("--h", type=float, default=0.005),
    ]),
    "dickman-mass": (cmd_dickman_mass, "integral of rho against e^gamma", (), [
        _arg("--u-max", type=float, default=20.0),
        _arg("--h", type=float, default=0.005),
    ]),
    "mertens": (cmd_mertens, "Mertens product and scaling deviation", ("format",), [
        _arg("--x", type=int, required=True),
    ]),
    "smooth-sum": (cmd_smooth_sum, "scaled harmonic sum over the smooth monoid", ("format",), [
        _arg("--n-primes", type=int, required=True),
        _arg("--sequence", default="const1"),
        _arg("--c", type=int, default=10**6),
        _arg("--trend", action="store_true", help="emit rows for n = 3..n_primes"),
    ]),
    "wiener-sum": (cmd_wiener_sum, "multiplicative vanishing-sum probe", ("format",), [
        _arg("--n-primes", type=int, required=True),
        _arg("--nu-hat", default="lebesgue",
             help="preset (lebesgue|cos|cos-half|half-turn) or a JSON moments file"),
        _arg("--b", default="", help="excluded primes, e.g. 2"),
        _arg("--ell", type=int, default=1),
        _arg("--k", type=int, default=0),
        _arg("--c", type=int, default=10**5),
        _arg("--trend", action="store_true"),
    ]),
    "delta-estimate": (cmd_delta_estimate, "smooth-ratio tail integral estimate", (), [
        _arg("--u", type=float, required=True),
        _arg("--x", type=int, required=True),
    ]),
    "self-test": (cmd_self_test, "run the acceptance suite", (), [
        _arg("--criteria", default=None, help="comma-separated criterion numbers"),
        _arg("--corrupt", type=int, default=None,
             help="inject the seeded corruption of criterion 3, the only value (harness test)"),
    ]),
}


def build_parser() -> _Parser:
    shared = _shared_options()
    parser = _Parser(prog="affkms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_, options, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for flags, kwargs in [shared[o] for o in options + ("output",)] + arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in ("beta", "tol"):
            if not math.isfinite(getattr(args, name, 0.0)):
                raise UsageError(f"--{name} must be finite, got {getattr(args, name)}")
        if getattr(args, "tol", 1.0) <= 0:
            raise UsageError("tolerance must be > 0")
        if getattr(args, "truncation", 1) < 1:
            raise UsageError("truncation must be >= 1")
        report = args.handler(args)
        _emit(report, args)
        if report.violation is not None:
            raise ContractViolation(report.violation)
        return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ContractViolation, RuntimeError, MemoryError) as err:
        print(f"violation: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
