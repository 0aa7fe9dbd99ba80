"""Golden outputs of the CLI: exit code, stdout and the last line of stderr of each call.

Every subcommand, every state kind, the JSON and CSV paths and the usage and
violation paths are pinned in ``tests/golden/cli.json``.  Temporary paths read
``<TMP>`` there and self-test timings are masked.  An intended change of
output is made by regenerating the file and reviewing its diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from affkms.cli import main
from affkms.measures import AtomicMeasure, dirac, epsilon, extremal_measure, measure_to_dict, root

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

EXT6 = "<TMP>/ext6.json"
MISSING = "<TMP>/missing.json"

# name -> (argv, environment); <TMP> stands for the directory of the measure files
CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    name: (argv.split(), env)
    for name, argv, env in [
        ("eval-finite", "eval-state --state finite:n=2,beta=1 --monomial 1,1,1", {}),
        ("eval-finite-offdiagonal", "eval-state --state finite:n=6,beta=0.8 --monomial 2,3,4", {}),
        ("eval-lebesgue", "eval-state --state lebesgue:beta=0.8 --monomial 3,0,3", {}),
        ("eval-measure", f"eval-state --state measure:beta=0.7,file={EXT6} --monomial 2,3,2", {}),
        ("eval-lowtemp", "eval-state --state lowtemp:beta=2,file=<TMP>/eps4.json --monomial 2,1,2", {}),
        ("eval-quotient", "eval-state --state quotient:n=6,m=2,beta=0.5 --monomial 1,1,1", {}),
        ("eval-quotient-char", "eval-state --state quotient-char:n=6,zeta=1/3,beta=2 --monomial 1,2,1", {}),
        ("eval-qz", "eval-state --state qz:level=12,m=4,beta=0.7 --monomial 2,1/6,2", {}),
        ("eval-qz-char", "eval-state --state qz-char:level=12,chi=1/4,beta=1.5 --monomial 1,1/3,1", {}),
        ("eval-bad-field", "eval-state --state finite:n=2,beta --monomial 1,1,1", {}),
        ("eval-missing-field", "eval-state --state finite:n=2 --monomial 1,1,1", {}),
        ("eval-unknown-field", "eval-state --state lowtemp:beta=2,file=<TMP>/eps4.json,trunc=9 --monomial 1,1,1", {}),
        ("eval-unknown-kind", "eval-state --state bogus:beta=1 --monomial 1,0,1", {}),
        ("eval-bad-number", "eval-state --state finite:n=two,beta=1 --monomial 1,1,1", {}),
        ("eval-bad-beta", "eval-state --state finite:n=2,beta=-1 --monomial 1,1,1", {}),
        ("eval-bad-root", "eval-state --state quotient-char:n=6,zeta=1/0,beta=2 --monomial 1,1,1", {}),
        ("eval-missing-file", f"eval-state --state measure:beta=0.5,file={MISSING} --monomial 1,1,1", {}),
        ("eval-bad-monomial", "eval-state --state finite:n=2,beta=1 --monomial 1,2", {}),
        ("eval-format-csv", "eval-state --state finite:n=2,beta=1 --monomial 1,1,1 --format csv", {}),
        ("eval-finite-qz-monomial", "eval-state --state finite:n=2,beta=1 --monomial 1,1/2,1", {}),
        ("eval-lowtemp-qz-monomial", "eval-state --state lowtemp:beta=2,file=<TMP>/eps4.json --monomial 1,1/2,1", {}),
        ("eval-qz-integer-monomial", "eval-state --state qz:level=12,m=4,beta=0.7 --monomial 1,1,1", {}),
        ("eval-qz-char-integer-monomial", "eval-state --state qz-char:level=12,chi=1/4,beta=1.5 --monomial 1,1,1", {}),
        ("eval-quotient-m-zero", "eval-state --state quotient:n=6,m=0,beta=0.5 --monomial 1,1,1", {}),
        ("eval-quotient-m-negative", "eval-state --state quotient:n=6,m=-2,beta=0.5 --monomial 1,1,1", {}),
        ("eval-qz-m-zero", "eval-state --state qz:level=12,m=0,beta=0.5 --monomial 1,1/3,1", {}),
        ("eval-qz-m-negative", "eval-state --state qz:level=12,m=-4,beta=0.5 --monomial 1,1/3,1", {}),
        ("eval-nan-beta", "eval-state --state finite:n=6,beta=nan --monomial 1,1,1", {}),
        ("eval-quotient-char-order", "eval-state --state quotient-char:n=6,zeta=1/3,beta=2 --monomial 1,1/4,1", {}),
        ("kms-finite", "kms-check --state finite:n=6,beta=0.8 --pairs 50 --seed 42", {}),
        ("kms-measure", f"kms-check --state measure:beta=0.7,file={EXT6} --pairs 30", {}),
        ("kms-lebesgue-env-seed", "kms-check --state lebesgue:beta=1 --pairs 20", {"AFFKMS_SEED": "3"}),
        ("kms-violation", "kms-check --state finite:n=6,beta=0.8 --pairs 50 --tol 1e-300", {}),
        ("kms-bad-tol", "kms-check --state finite:n=6,beta=0.8 --pairs 5 --tol 0", {}),
        ("kms-inf-tol", "kms-check --state finite:n=6,beta=0.8 --pairs 5 --tol inf", {}),
        ("kms-lowtemp", "kms-check --state lowtemp:beta=2,file=<TMP>/eps4.json --pairs 5", {}),
        ("kms-quotient", "kms-check --state quotient:n=6,m=2,beta=0.5 --pairs 5", {}),
        ("kms-quotient-char", "kms-check --state quotient-char:n=6,zeta=1/3,beta=2 --pairs 5", {}),
        ("kms-qz", "kms-check --state qz:level=12,m=4,beta=0.7 --pairs 3", {}),
        ("kms-qz-char", "kms-check --state qz-char:level=12,chi=1/4,beta=1.5 --pairs 3", {}),
        ("kms-pairs-zero", "kms-check --state finite:n=6,beta=0.8 --pairs 0", {}),
        ("decompose-mixture", "decompose --beta 0.7 --measure <TMP>/mix.json", {}),
        ("decompose-not-subconformal", "decompose --beta 1.0 --measure <TMP>/half.json", {}),
        ("decompose-not-invariant", "decompose --beta 0.7 --measure <TMP>/noninv.json", {}),
        ("decompose-loose-tol", "decompose --beta 0.7 --measure <TMP>/noninv.json --tol 0.5", {}),
        ("decompose-repeated-atom", "decompose --beta 0.7 --measure <TMP>/repeated.json", {}),
        ("decompose-missing-file", f"decompose --beta 1.0 --measure {MISSING}", {}),
        ("decompose-malformed", "decompose --beta 1.0 --measure <TMP>/malformed.json", {}),
        ("decompose-bad-schema", "decompose --beta 1.0 --measure <TMP>/schema.json", {}),
        ("decompose-beta-range", f"decompose --beta 1.5 --measure {EXT6}", {}),
        ("subconformal-pass", f"check-subconformal --beta 0.7 --measure {EXT6} --prime-bound 10", {}),
        ("subconformal-default-bound", f"check-subconformal --beta 0.7 --measure {EXT6}", {}),
        ("subconformal-fail", "check-subconformal --beta 1.0 --measure <TMP>/half.json --prime-bound 10", {}),
        ("extremal-closed", "extremal-measure --n 6 --beta 0.7", {}),
        ("extremal-inverse", "extremal-measure --n 6 --beta 0.7 --route inverse", {}),
        ("extremal-solve-guard", "extremal-measure --route inverse --n 840 --beta 0.001", {}),
        ("extremal-nan-beta", "extremal-measure --n 6 --beta nan", {}),
        ("extremal-output-file", "extremal-measure --n 4 --beta 0.5 --output <TMP>/out.json", {}),
        ("pushforward", f"pushforward --measure {EXT6} --d 4", {}),
        ("pushforward-bad-d", f"pushforward --measure {EXT6} --d 0", {}),
        ("t-beta", f"t-beta --measure {EXT6} --beta 2 --truncation 1000", {}),
        ("t-beta-env-truncation", "t-beta --measure <TMP>/one.json --beta 3", {"AFFKMS_TRUNCATION": "500"}),
        ("t-beta-truncation-0", f"t-beta --measure {EXT6} --beta 2 --truncation 0", {}),
        ("t-beta-low-beta", f"t-beta --measure {EXT6} --beta 1 --truncation 10", {}),
        ("limit-beta1-json", "limit-beta1 --z 1/4 --jmax 7", {}),
        ("limit-beta1-csv", "limit-beta1 --z 1/4 --jmax 7 --format csv", {}),
        ("limit-beta1-csv-near-pole", "limit-beta1 --z 1/4 --jmax 12 --format csv", {}),
        ("limit-beta1-bad-root", "limit-beta1 --z 1/0", {}),
        ("limit-beta1-jmax-zero", "limit-beta1 --z 1/4 --jmax 0", {}),
        ("superposition", "superposition-check --n 4 --beta 2", {}),
        ("superposition-low-beta", "superposition-check --n 4 --beta 1", {}),
        ("superposition-inf-beta", "superposition-check --n 4 --beta inf", {}),
        ("kappa", "kappa --b 3 --monomial 2,5,7", {}),
        ("kappa-qz-monomial", "kappa --b 3 --monomial 1,1/2,1", {}),
        ("quotient-divisor", "quotient-eval --n 6 --m 2 --beta 0.5 --monomial 1,1,1", {}),
        ("quotient-subgroup-alias", "quotient-eval --n 6 --subgroup 2 --beta 0.5 --monomial 1,1,1", {}),
        ("quotient-character", "quotient-eval --n 6 --zeta 1/3 --beta 2 --monomial 1,2,1", {}),
        ("quotient-needs-m-or-zeta", "quotient-eval --n 6 --beta 0.5 --monomial 1,1,1", {}),
        ("quotient-m-zero", "quotient-eval --n 6 --m 0 --beta 0.5 --monomial 1,1,1", {}),
        ("quotient-order", "quotient-eval --n 6 --m 2 --beta 0.5 --monomial 1,1/4,1", {}),
        ("qz-coherence", "qz-coherence --level 12 --beta 0.7 --count 5 --seed 9", {}),
        ("qz-coherence-subgroup", "qz-coherence --level 12 --beta 0.5 --subgroup 4 --count 3", {}),
        ("qz-coherence-bad-subgroup", "qz-coherence --level 12 --beta 0.5 --subgroup 5 --count 3", {}),
        ("qz-coherence-subgroup-zero", "qz-coherence --level 12 --beta 0.5 --subgroup 0 --count 3", {}),
        ("qz-coherence-count-zero", "qz-coherence --level 12 --beta 0.5 --count 0", {}),
        ("qz-coherence-level-zero", "qz-coherence --level 0 --beta 0.5", {}),
        ("reconstruct-finite", "reconstruct --state finite:n=4,beta=0.9 --f 2,3 --k 2 --truncation 10000", {}),
        ("reconstruct-measure", f"reconstruct --state measure:beta=0.7,file={EXT6} --f 2 --k 1 --truncation 1000", {}),
        ("reconstruct-wrong-kind", "reconstruct --state lebesgue:beta=0.8 --f 2 --k 1", {}),
        ("reconstruct-bad-primes", "reconstruct --state finite:n=4,beta=0.9 --f 2,x --k 1", {}),
        ("e-f-mass-finite", "e-f-mass --state finite:n=6,beta=0.8 --f 2,3,5", {}),
        ("e-f-mass-lebesgue", "e-f-mass --state lebesgue:beta=0.8 --f 2,3 --tol 1e-6", {}),
        ("e-f-mass-violation", "e-f-mass --state lebesgue:beta=0.8 --f 2,3 --tol 1e-300", {}),
        ("e-f-mass-qz", "e-f-mass --state qz:level=12,m=4,beta=0.7 --f 2", {}),
        ("e-f-mass-qz-char", "e-f-mass --state qz-char:level=12,chi=1/4,beta=1.5 --f 2", {}),
        ("psi-count", "psi-count --x 100000 --y 97", {}),
        ("dickman", "dickman --u 2.0", {}),
        ("dickman-mass", "dickman-mass --u-max 5 --h 0.005", {}),
        ("mertens-json", "mertens --x 1000", {}),
        ("mertens-csv", "mertens --x 1000 --format csv", {}),
        ("mertens-env-format", "mertens --x 100", {"AFFKMS_FORMAT": "csv"}),
        ("smooth-sum", "smooth-sum --n-primes 5 --c 10000", {}),
        ("smooth-sum-trend-json", "smooth-sum --n-primes 5 --sequence primes --c 10000 --trend", {}),
        ("smooth-sum-trend-csv", "smooth-sum --n-primes 5 --sequence primes --c 10000 --trend --format csv", {}),
        ("smooth-sum-negative-primes", "smooth-sum --n-primes -2 --c 1000", {}),
        ("smooth-sum-negative-primes-trend", "smooth-sum --n-primes -2 --c 1000 --trend", {}),
        ("smooth-sum-unknown-sequence", "smooth-sum --n-primes 5 --sequence cubes", {}),
        ("wiener-sum", "wiener-sum --n-primes 4 --nu-hat half-turn --b 2 --c 10000", {}),
        ("wiener-sum-trend-json", "wiener-sum --n-primes 5 --nu-hat cos --c 10000 --trend", {}),
        ("wiener-sum-trend-csv", "wiener-sum --n-primes 5 --nu-hat half-turn --c 10000 --trend --format csv", {}),
        ("wiener-sum-moments-file", "wiener-sum --n-primes 4 --nu-hat <TMP>/moments.json --c 10000", {}),
        ("wiener-sum-negative-primes", "wiener-sum --n-primes -1 --c 1000", {}),
        ("wiener-sum-negative-primes-trend", "wiener-sum --n-primes -1 --c 1000 --trend", {}),
        ("wiener-sum-unknown-preset", "wiener-sum --n-primes 4 --nu-hat triangle", {}),
        ("wiener-sum-bad-moments", "wiener-sum --n-primes 4 --nu-hat <TMP>/malformed.json", {}),
        ("delta-estimate", "delta-estimate --u 3.0 --x 100", {}),
        ("self-test-one", "self-test --criteria 1", {}),
        ("self-test-corrupt", "self-test --criteria 3 --corrupt 3", {}),
        ("self-test-corrupt-other", "self-test --criteria 5 --corrupt 5", {}),
        ("self-test-corrupt-not-run", "self-test --criteria 1 --corrupt 3", {}),
        ("self-test-output-file", "self-test --criteria 1,15 --output <TMP>/report.json", {}),
        ("self-test-bad-list", "self-test --criteria 1,x", {}),
        ("self-test-unknown-criterion", "self-test --criteria 99", {}),
        ("unknown-command", "frobnicate --x 1", {}),
        ("no-command", "", {}),
        ("bad-env", "psi-count --x 10 --y 3", {"AFFKMS_TRUNCATION": "many"}),
        ("ignored-tol", "psi-count --x 10 --y 3 --tol 1e-3", {}),
    ]
}


def measure_json(nu: AtomicMeasure) -> str:
    return json.dumps(measure_to_dict(nu), sort_keys=True)


def write_inputs(tmp: Path) -> None:
    """The measure and moment files the cases read."""
    files = {
        "ext6.json": measure_json(extremal_measure(6, 0.7)),
        "eps4.json": measure_json(epsilon(4)),
        "one.json": measure_json(dirac(root(0, 1))),
        "half.json": measure_json(dirac(root(1, 2))),
        "mix.json": measure_json(
            extremal_measure(2, 0.7).scaled(0.3).plus(extremal_measure(15, 0.7).scaled(0.7))
        ),
        "noninv.json": measure_json(AtomicMeasure({root(0, 1): 0.7316, root(3, 5): 0.2684})),
        "malformed.json": '{"level": 2,\n  "atoms": [}',
        "schema.json": '{"atoms": [{"num": 1}]}',
        "repeated.json": '{"atoms": [{"num": 0, "den": 1, "weight": 0.5}, {"num": 0, "den": 1, "weight": 0.25}, '
                         '{"num": 1, "den": 2, "weight": 0.25}]}',
        "moments.json": '{"0": 1.0, "1": [0.25, 0.0], "-1": 0.25}',
    }
    for name, text in files.items():
        (tmp / name).write_text(text)


_TIMING = re.compile(r"\(\s*\d+\.\d+s\)")
_ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')


def _mask(text: str, tmp: str) -> str:
    text = _TIMING.sub("(<T>s)", text.replace(tmp, "<TMP>"))
    return _ELAPSED.sub('"elapsed_s": "<T>"', text)


def run_case(name: str, tmp: Path) -> dict:
    """Call the CLI in this process; return exit code, stdout, stderr's last line, written file."""
    argv, env = CASES[name]
    argv = [a.replace("<TMP>", str(tmp)) for a in argv]
    saved = {k: os.environ.get(k) for k in env}
    out, err = io.StringIO(), io.StringIO()
    try:
        os.environ.update(env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    err_lines = err.getvalue().splitlines()
    result = {
        "argv": CASES[name][0],
        "env": env,
        "exit": code,
        "stdout": _mask(out.getvalue(), str(tmp)).splitlines(),
        "stderr": _mask(err_lines[-1], str(tmp)) if err_lines else "",
    }
    if "--output" in argv:
        target = Path(argv[argv.index("--output") + 1])
        result["written"] = _mask(target.read_text(), str(tmp)).splitlines()
        target.unlink()
    return result


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    write_inputs(tmp)
    return tmp


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, inputs, golden):
    assert run_case(name, inputs) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        write_inputs(Path(d))
        doc = {name: run_case(name, Path(d)) for name in sorted(CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}", file=sys.stderr)
