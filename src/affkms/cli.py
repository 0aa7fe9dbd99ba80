"""Command-line surface: one subcommand per operation, JSON/CSV output.

Exit codes: 0 on success, 2 when a checked contract or a numerical guard is
violated (the witness is printed), 1 on usage errors.  Config precedence is
flags, then AFFKMS_* environment variables, then defaults.  Output is deterministic for a fixed
seed and config; NaN/inf never reach the serializer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from math import gcd

from . import acceptance
from .arith import PrimeSet, partial_zeta
from .algebra import Monomial, projection_eF
from .measures import (
    AtomicMeasure,
    NotOrbitInvariantError,
    NotSubconformalError,
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
    eval_element,
    eval_state,
    kms_residual,
    limit_beta1,
    qz_coherence,
    reconstruct_check,
    superposition_check,
)
from .asymptotics import (
    SequenceSpec,
    delta_estimate,
    dickman,
    dickman_mass,
    mertens_product,
    psi_count,
    smooth_harmonic_sum,
    wiener_sum,
)

import math


class UsageError(Exception):
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


@dataclass
class RunConfig:
    tolerance: float
    truncation: int
    prime_bound: int
    seed: int
    output: str | None
    format: str

    def __post_init__(self):
        if self.tolerance <= 0:
            raise UsageError("tolerance must be > 0")
        if self.truncation < 1:
            raise UsageError("truncation must be >= 1")


def _config(args) -> RunConfig:
    return RunConfig(
        tolerance=args.tol,
        truncation=args.truncation,
        prime_bound=args.prime_bound,
        seed=args.seed,
        output=args.output,
        format=args.format,
    )


def _emit(text: str, config: RunConfig) -> None:
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, config: RunConfig) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as err:
        raise ContractViolation(f"non-finite value in output: {err}") from None
    _emit(text + "\n", config)


def _emit_csv(header, rows, config: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), config)


class ContractViolation(Exception):
    pass


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

    def need(*names):
        missing = [n for n in names if n not in fields]
        if missing:
            raise UsageError(f"state {kind!r} needs fields {missing}")
        unknown = sorted(set(fields) - set(names))
        if unknown:
            raise UsageError(f"state {kind!r} takes no fields {unknown}")

    try:
        if kind == "finite":
            need("n", "beta")
            return FiniteN(int(fields["n"]), float(fields["beta"]))
        if kind == "lebesgue":
            need("beta")
            return LebesgueInf(float(fields["beta"]))
        if kind == "measure":
            need("beta", "file")
            return FromMeasure(_load_measure(fields["file"]), float(fields["beta"]))
        if kind == "lowtemp":
            need("beta", "file")
            return LowTemp(_load_measure(fields["file"]), float(fields["beta"]))
        if kind == "quotient":
            need("n", "m", "beta")
            return Quotient(int(fields["n"]), int(fields["m"]), float(fields["beta"]))
        if kind == "quotient-char":
            need("n", "zeta", "beta")
            return QuotientChar(int(fields["n"]), _parse_root(fields["zeta"]), float(fields["beta"]))
        if kind == "qz":
            need("level", "m", "beta")
            return QZSubgroup(int(fields["level"]), int(fields["m"]), float(fields["beta"]))
        if kind == "qz-char":
            need("level", "chi", "beta")
            return QZChar(
                int(fields["level"]), _parse_root(fields["chi"]), float(fields["beta"])
            )
    except ValueError as err:
        raise UsageError(f"bad state {text!r}: {err}") from None
    raise UsageError(
        f"unknown state kind {kind!r}; expected finite|lebesgue|measure|lowtemp|"
        f"quotient|quotient-char|qz|qz-char"
    )


def _describe_spec(spec) -> dict:
    doc = {"kind": type(spec).__name__}
    for field in ("n", "m", "level", "beta"):
        if hasattr(spec, field):
            doc[field] = getattr(spec, field)
    if hasattr(spec, "zeta"):
        doc["zeta"] = str(spec.zeta)
    if hasattr(spec, "chi"):
        doc["chi"] = str(spec.chi)
    if hasattr(spec, "nu"):
        doc["measure_level"] = spec.nu.support_level()
    if hasattr(spec, "eta"):
        doc["measure_level"] = spec.eta.support_level()
    return doc


def _describe_monomial(x) -> dict:
    if isinstance(x, QZMonomial):
        return {"a": x.a, "x": str(x.x), "b": x.b}
    return {"a": x.a, "k": x.k, "b": x.b}


# ---- subcommand handlers -------------------------------------------------


def cmd_eval_state(args, config):
    spec = _parse_state(args.state)
    x = _parse_monomial(args.monomial)
    sv = eval_state(spec, x)
    doc = {
        "spec": _describe_spec(spec),
        "monomial": _describe_monomial(x),
        "value": {"re": sv.value.real, "im": sv.value.imag},
    }
    if sv.tail is not None:
        doc["tail_bound"] = sv.tail
    _emit_json(doc, config)
    return 0


def cmd_kms_check(args, config):
    spec = _parse_state(args.state)
    rng = random.Random(config.seed)
    worst = 0.0
    witness = None
    for _ in range(args.pairs):
        x = Monomial(rng.randint(1, 20), rng.randint(-15, 15), rng.randint(1, 20))
        y = Monomial(rng.randint(1, 20), rng.randint(-15, 15), rng.randint(1, 20))
        r = kms_residual(spec, x, y)
        if r > worst:
            worst, witness = r, (x, y)
    doc = {
        "spec": _describe_spec(spec),
        "pairs": args.pairs,
        "seed": config.seed,
        "max_residual": worst,
        "tolerance": config.tolerance,
        "ok": worst <= config.tolerance,
    }
    if witness is not None:
        doc["worst_pair"] = [_describe_monomial(witness[0]), _describe_monomial(witness[1])]
    _emit_json(doc, config)
    if worst > config.tolerance:
        raise ContractViolation(f"residual {worst:.3e} > {config.tolerance:.3e} at {witness}")
    return 0


def cmd_decompose(args, config):
    nu = _load_measure(args.measure)
    try:
        lam = decompose(nu, args.beta, tol=config.tolerance)
    except NotSubconformalError as err:
        _emit_json(
            {
                "ok": False,
                "diagnostic": "not subconformal",
                "witness_index": err.witness_n,
                "witness_coefficient": err.coefficients[err.witness_n],
            },
            config,
        )
        raise ContractViolation(str(err)) from None
    except NotOrbitInvariantError as err:
        _emit_json({"ok": False, "diagnostic": "not constant on the roots of each order",
                    "witness_atom": str(err.atom), "witness_weight": err.weight,
                    "expected_weight": err.expected}, config)
        raise ContractViolation(str(err)) from None
    _emit_json(
        {
            "beta": args.beta,
            "coefficients": {str(n): w for n, w in sorted(lam.items())},
            "mass": nu.mass(),
            "ok": True,
        },
        config,
    )
    return 0


def cmd_check_subconformal(args, config):
    nu = _load_measure(args.measure)
    verdict = check_subconformal(nu, args.beta, config.prime_bound, tol=config.tolerance)
    doc = {
        "beta": args.beta,
        "prime_bound": config.prime_bound,
        "passed": verdict.passed,
        "primes_checked": list(verdict.primes_checked),
        "note": verdict.note,
    }
    if verdict.witness is not None:
        F, atom, value = verdict.witness
        doc["witness"] = {"primes": list(F), "atom": str(atom), "value": value}
    _emit_json(doc, config)
    if not verdict.passed:
        raise ContractViolation(f"not subconformal: witness {verdict.witness}")
    return 0


def cmd_extremal_measure(args, config):
    if args.route == "closed":
        nu = extremal_measure(args.n, args.beta)
    else:
        scale = math.prod(1 - p**-args.beta for p in PrimeSet.dividing(args.n))
        nu = apply_A_inv(epsilon(args.n), args.n, args.beta, level=args.n).scaled(scale)
    _emit_json(measure_to_dict(nu), config)
    return 0


def cmd_pushforward(args, config):
    nu = _load_measure(args.measure)
    _emit_json(measure_to_dict(pushforward(nu, args.d)), config)
    return 0


def cmd_t_beta(args, config):
    nu = _load_measure(args.measure)
    out, tail = t_beta(nu, args.beta, config.truncation)
    _emit_json({"measure": measure_to_dict(out), "tail_mass": tail}, config)
    return 0


def cmd_limit_beta1(args, config):
    z = _parse_root(args.z)
    betas = [1 + 10.0**-j for j in range(1, args.jmax + 1)]
    rows = limit_beta1(z, betas)
    payload = [(f"{beta:.7f}", dist, "decreasing") for beta, dist in rows]
    if config.format == "csv":
        _emit_csv(("beta", "tv_distance", "trend"), payload, config)
    else:
        _emit_json(
            {"z": str(z), "rows": [{"beta": b, "distance": d} for b, d in rows]}, config
        )
    dists = [d for _, d in rows]
    if not all(a >= b for a, b in zip(dists, dists[1:])):
        raise ContractViolation(f"distance sequence not monotone: {dists}")
    return 0


def cmd_superposition_check(args, config):
    dev, tail = superposition_check(args.n, args.beta)
    _emit_json(
        {"n": args.n, "beta": args.beta, "max_deviation": dev, "tail_bound": tail,
         "ok": dev <= tail + 1e-12},
        config,
    )
    if dev > tail + 1e-12:
        raise ContractViolation(f"deviation {dev:.3e} exceeds tail {tail:.3e}")
    return 0


def cmd_kappa(args, config):
    x = _parse_monomial(args.monomial)
    if not isinstance(x, Monomial):
        raise UsageError("kappa acts on integer monomials a,k,b")
    _emit_json({"b": args.b, "monomial": _describe_monomial(apply_kappa(args.b, x))}, config)
    return 0


def cmd_quotient_eval(args, config):
    if args.zeta is not None:
        spec = QuotientChar(args.n, _parse_root(args.zeta), args.beta)
    else:
        if args.m is None:
            raise UsageError("quotient-eval needs --m (divisor state) or --zeta (character state)")
        spec = Quotient(args.n, args.m, args.beta)
    x = _parse_monomial(args.monomial)
    sv = eval_state(spec, x)
    doc = {
        "spec": _describe_spec(spec),
        "monomial": _describe_monomial(x),
        "value": {"re": sv.value.real, "im": sv.value.imag},
    }
    if sv.tail is not None:
        doc["tail_bound"] = sv.tail
    _emit_json(doc, config)
    return 0


def cmd_qz_coherence(args, config):
    from .arith import divisors

    rng = random.Random(config.seed)
    worst = 0.0
    witness = None
    checks = 0
    ms = [args.subgroup] if args.subgroup is not None else divisors(args.level)
    for m in ms:
        if args.level % m != 0:
            raise UsageError(f"subgroup divisor {m} does not divide the level {args.level}")
        for n in divisors(args.level):
            for _ in range(args.count):
                q = rng.choice(divisors(n))
                num = rng.choice([j for j in range(q) if gcd(j, q) == 1])
                x = QZMonomial(rng.randint(1, 8), root(num, q), rng.randint(1, 8))
                lhs, rhs = qz_coherence(args.level, m, n, args.beta, x)
                gap = abs(lhs - rhs)
                checks += 1
                if gap > worst:
                    worst, witness = gap, (m, n, _describe_monomial(x))
    doc = {
        "level": args.level,
        "beta": args.beta,
        "checks": checks,
        "seed": config.seed,
        "max_gap": worst,
        "tolerance": config.tolerance,
        "ok": worst <= config.tolerance,
    }
    if witness:
        doc["worst_case"] = {"m": witness[0], "n": witness[1], "monomial": witness[2]}
    _emit_json(doc, config)
    if worst > config.tolerance:
        raise ContractViolation(f"coherence gap {worst:.3e} at {witness}")
    return 0


def cmd_reconstruct(args, config):
    spec = _parse_state(args.state)
    if not isinstance(spec, (FiniteN, FromMeasure)):
        raise UsageError("reconstruct works with finite:... or measure:... states")
    F = _parse_primes(args.f)
    lhs, rhs, tail = reconstruct_check(spec, F, args.k, config.truncation)
    gap = abs(lhs - rhs)
    _emit_json(
        {"k": args.k, "primes": list(F.primes), "lhs": lhs, "rhs": rhs,
         "tail_bound": tail, "ok": gap <= tail + 1e-12},
        config,
    )
    if gap > tail + 1e-12:
        raise ContractViolation(f"reconstruction gap {gap:.3e} exceeds tail {tail:.3e}")
    return 0


def cmd_e_f_mass(args, config):
    spec = _parse_state(args.state)
    F = _parse_primes(args.f)
    beta = spec.beta
    got = eval_element(spec, projection_eF(F)).value
    expected = 1.0 / partial_zeta(F, beta) if len(F) else 1.0
    deviation = abs(got - expected)
    _emit_json(
        {"primes": list(F.primes), "beta": beta, "value": got.real,
         "expected": expected, "deviation": deviation,
         "ok": deviation <= config.tolerance},
        config,
    )
    if deviation > config.tolerance:
        raise ContractViolation(f"projection mass deviation {deviation:.3e}")
    return 0


def cmd_psi_count(args, config):
    _emit_json({"x": args.x, "y": args.y, "count": psi_count(args.x, args.y)}, config)
    return 0


def cmd_dickman(args, config):
    _emit_json({"u": args.u, "h": args.h, "rho": dickman(args.u, args.h)}, config)
    return 0


def cmd_dickman_mass(args, config):
    mass = dickman_mass(args.u_max, args.h)
    target = math.exp(0.5772156649015329)
    _emit_json(
        {"u_max": args.u_max, "h": args.h, "mass": mass, "e_gamma": target,
         "error": abs(mass - target)},
        config,
    )
    return 0


def cmd_mertens(args, config):
    r = mertens_product(args.x)
    if config.format == "csv":
        _emit_csv(("x", "scaled", "rel_dev"), [(args.x, r.scaled, r.rel_dev)], config)
    else:
        _emit_json(
            {"x": args.x, "product": r.product, "scaled": r.scaled, "rel_dev": r.rel_dev},
            config,
        )
    return 0


_SEQUENCES = {
    "const1": SequenceSpec.const_one,
    "const0": SequenceSpec.const_zero,
    "primes": SequenceSpec.prime_indicator,
    "squares": SequenceSpec.square_indicator,
}


def cmd_smooth_sum(args, config):
    if args.sequence not in _SEQUENCES:
        raise UsageError(f"unknown sequence {args.sequence!r}; options: {sorted(_SEQUENCES)}")
    seq = _SEQUENCES[args.sequence]()
    if args.trend:
        rows = [
            (n, smooth_harmonic_sum(n, seq, args.c).value, "decreasing")
            for n in range(3, args.n_primes + 1)
        ]
        if config.format == "csv":
            _emit_csv(("n_primes", "value", "trend"), rows, config)
        else:
            _emit_json({"sequence": args.sequence,
                        "rows": [{"n_primes": n, "value": v} for n, v, _ in rows]}, config)
    else:
        value, share = smooth_harmonic_sum(args.n_primes, seq, args.c)
        _emit_json(
            {"sequence": args.sequence, "n_primes": args.n_primes, "c": args.c,
             "value": value, "truncation_share": share},
            config,
        )
    return 0


_NU_HATS = {
    "lebesgue": {0: 1.0},
    "cos": {0: 1.0, 1: 0.5, -1: 0.5},
    "cos-half": {0: 1.0, 1: 0.25, -1: 0.25},
    "half-turn": lambda m: (-1.0) ** m,
}


def cmd_wiener_sum(args, config):
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
    if args.trend:
        rows = []
        for n in range(3, args.n_primes + 1):
            v = wiener_sum(nu_hat, n, B, args.ell, args.k, args.c)
            rows.append((n, abs(v), "vanishing" if args.nu_hat != "half-turn" else "bounded-away"))
        if config.format == "csv":
            _emit_csv(("n_primes", "abs_value", "trend"), rows, config)
        else:
            _emit_json({"rows": [{"n_primes": n, "abs_value": v} for n, v, _ in rows]}, config)
    else:
        v = wiener_sum(nu_hat, args.n_primes, B, args.ell, args.k, args.c)
        _emit_json(
            {"n_primes": args.n_primes, "ell": args.ell, "k": args.k, "c": args.c,
             "value": {"re": v.real, "im": v.imag}, "abs": abs(v)},
            config,
        )
    return 0


def cmd_delta_estimate(args, config):
    est = delta_estimate(args.u, args.x)
    _emit_json(
        {"u": args.u, "x": args.x, "value": est.value, "s_max": est.s_max,
         "truncated": est.truncated},
        config,
    )
    return 0


def cmd_self_test(args, config):
    numbers = None
    if args.criteria:
        try:
            numbers = [int(t) for t in args.criteria.split(",") if t.strip()]
        except ValueError as err:
            raise UsageError(f"bad criteria list {args.criteria!r}: {err}") from None
    results = acceptance.run_all(numbers, corrupt=args.corrupt)
    for r in results:
        print(r.line())
    doc = {
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "results": [
            {"criterion": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail, "elapsed_s": round(r.elapsed, 3)}
            for r in results
        ],
    }
    if config.output:
        _emit_json(doc, config)
    if doc["failed"]:
        raise ContractViolation(f"{doc['failed']} criteria failed")
    return 0


# ---- parser --------------------------------------------------------------


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=_env("TOL", 1e-10, float),
                        help="comparison tolerance (default 1e-10)")
    common.add_argument("--truncation", type=int, default=_env("TRUNCATION", 100_000, int),
                        help="series truncation bound of t-beta and reconstruct (default 1e5)")
    common.add_argument("--prime-bound", type=int, default=_env("PRIME_BOUND", 30, int),
                        help="extra-prime window for subconformality checks (default 30)")
    common.add_argument("--seed", type=int, default=_env("SEED", 20_260_811, int),
                        help="seed for random probes")
    common.add_argument("--format", choices=("json", "csv"),
                        default=_env("FORMAT", "json", str), help="output format")
    common.add_argument("--output", default=_env("OUTPUT", None, str),
                        help="output path (default: stdout)")

    parser = _Parser(prog="affkms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, **extra):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.set_defaults(handler=handler)
        return p

    p = add("eval-state", cmd_eval_state, "evaluate a state on one monomial")
    p.add_argument("--state", required=True, help="e.g. finite:n=2,beta=1")
    p.add_argument("--monomial", required=True, help="a,k,b (or a,p/q,b for Q/Z)")

    p = add("kms-check", cmd_kms_check, "equilibrium identity residual over random pairs")
    p.add_argument("--state", required=True)
    p.add_argument("--pairs", type=int, default=1000)

    p = add("decompose", cmd_decompose, "convex decomposition into extremal measures")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--measure", required=True, help="measure JSON file")

    p = add("check-subconformal", cmd_check_subconformal, "bounded subconformality verifier")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--measure", required=True)

    p = add("extremal-measure", cmd_extremal_measure, "the index-n extremal measure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--route", choices=("closed", "inverse"), default="closed")

    p = add("pushforward", cmd_pushforward, "wrap-around image of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("t-beta", cmd_t_beta, "truncated low-temperature series image")
    p.add_argument("--measure", required=True)
    p.add_argument("--beta", type=float, required=True)

    p = add("limit-beta1", cmd_limit_beta1, "distance to uniform as beta drops to 1")
    p.add_argument("--z", required=True, help="root of unity p/q")
    p.add_argument("--jmax", type=int, default=6, help="betas 1 + 10^-j for j = 1..jmax")

    p = add("superposition-check", cmd_superposition_check,
            "closed form vs uniform superposition of point states (beta > 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)

    p = add("kappa", cmd_kappa, "apply the U -> U^b symmetry to a monomial")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--monomial", required=True)

    p = add("quotient-eval", cmd_quotient_eval, "finite-quotient state evaluation")
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", "--subgroup", dest="m", type=int, default=None,
                   help="divisor index of the subgroup state (beta <= 1)")
    p.add_argument("--zeta", default=None, help="root of unity p/q (beta > 1)")
    p.add_argument("--monomial", required=True)

    p = add("qz-coherence", cmd_qz_coherence, "level-restriction coherence sweep")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--count", type=int, default=20, help="monomials per (m, n) pair")
    p.add_argument("--subgroup", type=int, default=None,
                   help="restrict the sweep to one subgroup divisor m")

    p = add("reconstruct", cmd_reconstruct, "compression-series reconstruction check")
    p.add_argument("--state", required=True)
    p.add_argument("--f", required=True, help="prime set, e.g. 2,3")
    p.add_argument("--k", type=int, required=True)

    p = add("e-f-mass", cmd_e_f_mass, "state mass of the smooth projection e_F")
    p.add_argument("--state", required=True)
    p.add_argument("--f", required=True)

    p = add("psi-count", cmd_psi_count, "exact smooth-number count")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)

    p = add("dickman", cmd_dickman, "Dickman rho at a point")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--h", type=float, default=0.005)

    p = add("dickman-mass", cmd_dickman_mass, "integral of rho against e^gamma")
    p.add_argument("--u-max", type=float, default=20.0)
    p.add_argument("--h", type=float, default=0.005)

    p = add("mertens", cmd_mertens, "Mertens product and scaling deviation")
    p.add_argument("--x", type=int, required=True)

    p = add("smooth-sum", cmd_smooth_sum, "scaled harmonic sum over the smooth monoid")
    p.add_argument("--n-primes", type=int, required=True)
    p.add_argument("--sequence", default="const1")
    p.add_argument("--c", type=int, default=10**6)
    p.add_argument("--trend", action="store_true", help="emit rows for n = 3..n_primes")

    p = add("wiener-sum", cmd_wiener_sum, "multiplicative vanishing-sum probe")
    p.add_argument("--n-primes", type=int, required=True)
    p.add_argument("--nu-hat", default="lebesgue",
                   help="preset (lebesgue|cos|cos-half|half-turn) or a JSON moments file")
    p.add_argument("--b", default="", help="excluded primes, e.g. 2")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--c", type=int, default=10**5)
    p.add_argument("--trend", action="store_true")

    p = add("delta-estimate", cmd_delta_estimate, "smooth-ratio tail integral estimate")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--x", type=int, required=True)

    p = add("self-test", cmd_self_test, "run the acceptance suite")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    p.add_argument("--corrupt", type=int, default=None,
                   help="inject a seeded corruption into the given criterion (harness test)")

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.handler(args, _config(args))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ContractViolation, RuntimeError) as err:
        print(f"violation: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
