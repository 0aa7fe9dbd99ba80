import json
import math
import warnings

import pytest

from affkms import arith, cli, measures
from affkms.cli import main
from affkms.measures import AtomicMeasure, dirac, epsilon, extremal_measure, measure_to_dict, root

# measure files that the parser must refuse: non-finite weights, non-integer fields,
# levels below 1, orders beyond int64
MALFORMED_MEASURES = {
    "nan-weight": '{"level": 2, "atoms": [{"num": 1, "den": 2, "weight": NaN}]}',
    "infinite-weight": '{"level": 2, "atoms": [{"num": 1, "den": 2, "weight": Infinity}]}',
    "float-level": '{"level": 6.0, "atoms": [{"num": 1, "den": 2, "weight": 1.0}]}',
    "float-root": '{"atoms": [{"num": 1.7, "den": 2.2, "weight": 1.0}]}',
    "zero-level": '{"level": 0, "atoms": [{"num": 0, "den": 1, "weight": 1.0}]}',
    "negative-level": '{"level": -6, "atoms": [{"num": 0, "den": 1, "weight": 1.0}]}',
    "order-beyond-int64": '{"atoms": [{"num": 1, "den": 9223372036854775808, "weight": 1.0}]}',
    "repeated-root": '{"atoms": [{"num": 0, "den": 1, "weight": 0.5}, {"num": 0, "den": 1, "weight": 0.25}, '
                     '{"num": 1, "den": 2, "weight": 0.25}]}',
}


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def measure_file(tmp_path):
    def _write(nu, name="m.json"):
        path = tmp_path / name
        path.write_text(json.dumps(measure_to_dict(nu), sort_keys=True))
        return str(path)

    return _write


class TestEvalState:
    def test_finite_example(self, run):
        code, out, _ = run("eval-state", "--state", "finite:n=2,beta=1", "--monomial", "1,1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["re"] == 0.0
        assert doc["value"]["im"] == 0.0

    def test_lowtemp_reports_tail(self, run, measure_file):
        path = measure_file(epsilon(4))
        code, out, _ = run(
            "eval-state", "--state", f"lowtemp:beta=2,file={path}",
            "--monomial", "2,1,2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tail_bound"] < 1e-12
        assert "truncation" not in doc["spec"]

    def test_unknown_state_field_is_usage_error(self, run, measure_file):
        path = measure_file(epsilon(4))
        code, _, err = run(
            "eval-state", "--state", f"lowtemp:beta=2,file={path},trunc=1000",
            "--monomial", "2,1,2",
        )
        assert code == 1
        assert "trunc" in err

    def test_qz_monomial(self, run):
        code, out, _ = run(
            "eval-state", "--state", "qz:level=12,m=12,beta=0.7", "--monomial", "3,1/6,3"
        )
        assert code == 0
        assert json.loads(out)["value"]["re"] == pytest.approx(3**-0.7)

    @pytest.mark.parametrize("argv, message", [
        ("eval-state --state finite:n=2,beta=1 --monomial 1,1/2,1",
         "FiniteN expects an integer monomial, got QZMonomial"),
        ("eval-state --state lowtemp:beta=2,file=EPS4 --monomial 1,1/2,1",
         "LowTemp expects an integer monomial, got QZMonomial"),
        ("eval-state --state qz:level=12,m=4,beta=0.7 --monomial 1,1,1",
         "QZSubgroup expects a Q/Z monomial, got Monomial"),
        ("eval-state --state qz-char:level=12,chi=1/4,beta=1.5 --monomial 1,1,1",
         "QZChar expects a Q/Z monomial, got Monomial"),
        ("eval-state --state qz:level=12,m=-4,beta=0.5 --monomial 1,1/3,1",
         "bad state 'qz:level=12,m=-4,beta=0.5': divisor index m must be >= 1, got -4"),
        ("quotient-eval --n 6 --m 0 --beta 0.5 --monomial 1,1,1",
         "divisor index m must be >= 1, got 0"),
        ("qz-coherence --level 12 --beta 0.5 --subgroup 0",
         "divisor index m must be >= 1, got 0"),
        ("kms-check --state finite:n=6,beta=0.8 --pairs -3", "pairs must be >= 1, got -3"),
        ("qz-coherence --level 12 --beta 0.5 --count -2", "count must be >= 1, got -2"),
        ("qz-coherence --level 0 --beta 0.5", "level must be >= 1, got 0"),
        ("quotient-eval --n 6 --m 2 --beta 0.5 --monomial 1,1/4,1", "order of 1/4 does not divide n = 6"),
        ("eval-state --state qz:level=12,m=4,beta=0.7 --monomial 1,1/8,1",
         "order of 1/8 does not divide the level 12"),
        ("eval-state --state finite:n=6,beta=nan --monomial 1,1,1",
         "bad state 'finite:n=6,beta=nan': beta must be finite, got nan"),
        ("eval-state --state qz:level=12,m=4,beta=-inf --monomial 1,1/3,1",
         "bad state 'qz:level=12,m=4,beta=-inf': beta must be finite, got -inf"),
        ("extremal-measure --n 6 --beta nan", "--beta must be finite, got nan"),
        ("superposition-check --n 4 --beta inf", "--beta must be finite, got inf"),
        ("kms-check --state finite:n=6,beta=0.8 --pairs 5 --tol inf", "--tol must be finite, got inf"),
        ("kms-check --state finite:n=6,beta=0.8 --pairs 5 --tol nan", "--tol must be finite, got nan"),
        ("kms-check --state finite:n=6,beta=0.8 --pairs 5 --tol 0", "tolerance must be > 0"),
    ])
    def test_refused_input_exits_1_with_one_line(self, run, measure_file, argv, message):
        argv = argv.replace("EPS4", measure_file(epsilon(4)))
        assert run(*argv.split()) == (1, "", f"error: {message}\n")

    def test_unknown_state_kind_is_usage_error(self, run):
        code, _, err = run("eval-state", "--state", "bogus:beta=1", "--monomial", "1,0,1")
        assert code == 1
        assert "unknown state kind" in err


class TestKmsCheck:
    def test_passes_and_is_deterministic(self, run):
        code1, out1, _ = run("kms-check", "--state", "finite:n=6,beta=0.8",
                             "--pairs", "200", "--seed", "42")
        code2, out2, _ = run("kms-check", "--state", "finite:n=6,beta=0.8",
                             "--pairs", "200", "--seed", "42")
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical for identical config and seed
        assert json.loads(out1)["ok"] is True


class TestDecompose:
    def test_roundtrip(self, run, measure_file):
        beta = 0.7
        mix = extremal_measure(2, beta).scaled(0.3).plus(extremal_measure(15, beta).scaled(0.7))
        path = measure_file(mix)
        code, out, _ = run("decompose", "--beta", "0.7", "--measure", path)
        assert code == 0
        lam = json.loads(out)["coefficients"]
        assert lam["2"] == pytest.approx(0.3, abs=1e-9)
        assert lam["15"] == pytest.approx(0.7, abs=1e-9)

    def test_not_subconformal_exits_2_with_witness(self, run, measure_file):
        path = measure_file(dirac(root(1, 2)))
        code, out, err = run("decompose", "--beta", "1.0", "--measure", path)
        assert code == 2
        doc = json.loads(out)
        assert doc["ok"] is False
        assert "witness_index" in doc
        assert "violation" in err

    def test_non_invariant_exits_2_with_atom(self, run, measure_file):
        path = measure_file(AtomicMeasure({root(0, 1): 0.7316, root(3, 5): 0.2684}))
        code, out, err = run("decompose", "--beta", "0.7", "--measure", path)
        assert code == 2
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["witness_atom"] == "3/5"
        assert err.startswith("violation:")

    def test_missing_file_is_usage_error(self, run):
        code, _, err = run("decompose", "--beta", "1.0", "--measure", "/no/such/file.json")
        assert code == 1
        assert "not found" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MEASURES))
    @pytest.mark.parametrize("argv", [
        ("check-subconformal", "--beta", "1", "--prime-bound", "5"),
        ("t-beta", "--beta", "2"),
        ("decompose", "--beta", "1.0"),
    ])
    def test_malformed_measure_is_usage_error(self, run, tmp_path, case, argv):
        path = tmp_path / "m.json"
        path.write_text(MALFORMED_MEASURES[case])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(*argv, "--measure", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: bad measure schema")

    def test_order_beyond_int64_named(self, run, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(MALFORMED_MEASURES["order-beyond-int64"])
        code, out, err = run("decompose", "--beta", "1.0", "--measure", str(path))
        assert (code, out) == (1, "")
        assert err.endswith("atom 1/9223372036854775808 has order 9223372036854775808, "
                            "beyond the 64-bit range\n")

    def test_malformed_json_reports_position(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"level": 2,\n  "atoms": [}')
        code, _, err = run("decompose", "--beta", "1.0", "--measure", str(bad))
        assert code == 1
        assert "line 2" in err and "column" in err


class TestSubconformalCommand:
    def test_pass(self, run, measure_file):
        path = measure_file(extremal_measure(6, 0.7))
        code, out, _ = run("check-subconformal", "--beta", "0.7", "--measure", path,
                           "--prime-bound", "10")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_fail_with_witness(self, run, measure_file):
        path = measure_file(dirac(root(1, 2)))
        code, out, _ = run("check-subconformal", "--beta", "1.0", "--measure", path,
                           "--prime-bound", "10")
        assert code == 2
        doc = json.loads(out)
        assert doc["witness"]["primes"] == [2]
        assert doc["witness"]["value"] == pytest.approx(-0.5)

    def test_oversized_frontier_refused(self, run, measure_file):
        # 25 primes up to 100 on the level-6 roots: a 2^25 x 6 frontier of 1536 MiB
        path = measure_file(extremal_measure(6, 0.7))
        code, out, err = run("check-subconformal", "--beta", "0.7", "--measure", path,
                             "--prime-bound", "100")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "m = 25" in err and "K = 6" in err and "1536 MiB" in err


class TestOversizedInputsRefused:
    """Level-K vectors, series and class sums over 128 MiB exit 1 with one line, at once."""

    # half a point mass on two roots of prime orders near 10^6: support level about 10^12
    HUGE = AtomicMeasure({root(1, 999983): 0.5, root(1, 1000003): 0.5})

    def assert_refused(self, result, what):
        code, out, err = result
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith(f"error: {what} needs")

    @pytest.mark.parametrize("argv, what", [
        (("t-beta", "--beta", "2"), "t_beta with C = 100000 terms at level K = 999985999949"),
        (("pushforward", "--d", "3"), "pushforward at level K = 999985999949"),
    ])
    def test_huge_level_measure(self, run, measure_file, argv, what):
        self.assert_refused(run(*argv, "--measure", measure_file(self.HUGE)), what)

    def test_huge_level_measure_is_not_orbit_invariant(self, run, measure_file):
        code, out, err = run("decompose", "--beta", "0.7", "--measure", measure_file(self.HUGE))
        assert code == 2
        assert json.loads(out)["witness_atom"] == "1/1000003"
        assert err.startswith("violation: not subconformal")

    def test_series_of_ten_billion_terms(self, run, measure_file):
        result = run("t-beta", "--beta", "2", "--truncation", "10000000000",
                     "--measure", measure_file(dirac(root(1, 2))))
        self.assert_refused(result, "t_beta with C = 10000000000 terms at level K = 2")

    def test_class_sums_of_a_huge_order(self, run):
        result = run("eval-state", "--state", "quotient-char:n=999999937,zeta=1/999999937,beta=2",
                     "--monomial", "1,1,1")
        self.assert_refused(result, "residue_weights over q = 999999937 classes")

    def test_limit_beta1_at_a_huge_order(self, run):
        self.assert_refused(run("limit-beta1", "--z", "1/999999937"),
                            "limit_beta1 at order 999999937")


class TestMeasureCommands:
    def test_extremal_routes_agree(self, run):
        _, out1, _ = run("extremal-measure", "--n", "6", "--beta", "0.7")
        _, out2, _ = run("extremal-measure", "--n", "6", "--beta", "0.7", "--route", "inverse")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["level"] == d2["level"] == 6
        w1 = {(a["num"], a["den"]): a["weight"] for a in d1["atoms"]}
        w2 = {(a["num"], a["den"]): a["weight"] for a in d2["atoms"]}
        assert set(w1) == set(w2)
        assert all(abs(w1[k] - w2[k]) < 1e-10 for k in w1)

    def test_inverse_route_past_the_old_dense_ceiling(self, run):
        code, out, _ = run("extremal-measure", "--route", "inverse", "--n", "5000",
                           "--beta", "0.5")
        assert code == 0
        got = {(a["num"], a["den"]): a["weight"] for a in json.loads(out)["atoms"]}
        want = extremal_measure(5000, 0.5).atoms()
        assert set(got) == {(z.num, z.den) for z in want}
        assert max(abs(got[z.num, z.den] - w) for z, w in want.items()) <= 1e-10
        code, out, err = run("extremal-measure", "--route", "inverse", "--n", "10000000",
                             "--beta", "0.5")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "10000000" in err

    def test_closed_route_atom_guard(self, run):
        code, out, err = run("extremal-measure", "--n", "10000000", "--beta", "0.5")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "extremal_measure(10000000)" in err and "MiB" in err

    def test_failed_solve_guard_exits_2(self, run, monkeypatch):
        # a push that drops half its mass once makes the solve fail its residual check
        push, calls = measures._push, []

        def lossy(src, d, out):
            push(src, d, out)
            if not calls:
                out *= 0.5
            calls.append(d)

        monkeypatch.setattr(measures, "_push", lossy)
        code, out, err = run("extremal-measure", "--route", "inverse", "--n", "840",
                             "--beta", "0.7")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("violation: A_inv solve residual")

    def test_inverse_route_at_small_beta(self, run):
        code, out, err = run("extremal-measure", "--route", "inverse", "--n", "840",
                             "--beta", "0.001")
        assert (code, err) == (0, "")
        got = {(a["num"], a["den"]): a["weight"] for a in json.loads(out)["atoms"]}
        want = extremal_measure(840, 0.001).atoms()
        assert set(got) == {(z.num, z.den) for z in want}
        assert max(abs(got[z.num, z.den] - w) for z, w in want.items()) <= 1e-13

    def test_pushforward(self, run, measure_file):
        path = measure_file(epsilon(12))
        code, out, _ = run("pushforward", "--measure", path, "--d", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == 3  # primitive order-12 mass wraps onto order 3

    def test_t_beta(self, run, measure_file):
        path = measure_file(epsilon(6))
        code, out, _ = run("t-beta", "--measure", path, "--beta", "2.0",
                           "--truncation", "10000")
        assert code == 0
        doc = json.loads(out)
        assert doc["tail_mass"] < 1e-4
        total = sum(a["weight"] for a in doc["measure"]["atoms"])
        assert total == pytest.approx(1 - doc["tail_mass"], abs=1e-12)


class TestTrendCommands:
    def test_limit_beta1_csv(self, run):
        code, out, _ = run("limit-beta1", "--z", "1/4", "--jmax", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,tv_distance,trend"
        assert len(lines) == 4

    def test_limit_beta1_csv_labels_tell_betas_apart(self, run):
        code, out, _ = run("limit-beta1", "--z", "1/4", "--jmax", "12", "--format", "csv")
        assert code == 0
        labels = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert len(set(labels)) == 12
        assert [float(b) for b in labels] == [1 + 10.0**-j for j in range(1, 13)]

    def test_limit_beta1_near_pole_matches_mpmath(self, run):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        code, out, _ = run("limit-beta1", "--z", "1/4", "--jmax", "12")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 12
        dists = [r["distance"] for r in rows]
        assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
        for row in rows:
            beta = row["beta"]
            atoms = [mpmath.zeta(beta, mpmath.mpf(r) / 4 if r else 1) for r in range(4)]
            want = sum(abs(w / sum(atoms) - mpmath.mpf(1) / 4) for w in atoms)
            assert abs(row["distance"] - want) <= 1e-12

    def test_superposition(self, run):
        code, out, _ = run("superposition-check", "--n", "4", "--beta", "2.0")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_smooth_sum_trend_csv(self, run):
        code, out, _ = run("smooth-sum", "--n-primes", "5", "--sequence", "primes",
                           "--c", "10000", "--trend", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_primes,value,trend"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert vals == sorted(vals, reverse=True)

    def test_wiener_sum_presets(self, run):
        code, out, _ = run("wiener-sum", "--n-primes", "4", "--nu-hat", "half-turn",
                           "--b", "2", "--c", "10000")
        assert code == 0
        assert json.loads(out)["abs"] > 0.2

    def test_mertens(self, run):
        code, out, _ = run("mertens", "--x", "1000")
        assert code == 0
        assert json.loads(out)["rel_dev"] < 0.01


class TestAlgebraCommands:
    def test_kappa(self, run):
        code, out, _ = run("kappa", "--b", "3", "--monomial", "2,5,7")
        assert code == 0
        assert json.loads(out)["monomial"] == {"a": 2, "k": 15, "b": 7}

    def test_quotient_eval_divisor_state(self, run):
        code, out, _ = run("quotient-eval", "--n", "6", "--m", "2", "--beta", "0.5",
                           "--monomial", "1,1,1")
        assert code == 0
        # order of 1 in the index-2 quotient is 2: value = 2^-0.5 (1 - (2^0.5 - 1))
        expected = 2**-0.5 * (1 - (2**0.5 - 1))
        assert json.loads(out)["value"]["re"] == pytest.approx(expected)

    def test_qz_coherence_sweep(self, run):
        code, out, _ = run("qz-coherence", "--level", "12", "--beta", "0.7",
                           "--count", "5", "--seed", "9")
        assert code == 0
        assert json.loads(out)["max_gap"] < 1e-12

    def test_reconstruct(self, run):
        code, out, _ = run("reconstruct", "--state", "finite:n=4,beta=0.9",
                           "--f", "2,3", "--k", "2", "--truncation", "10000")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_e_f_mass(self, run):
        code, out, _ = run("e-f-mass", "--state", "finite:n=6,beta=0.8", "--f", "2,3,5")
        assert code == 0
        doc = json.loads(out)
        expected = math.prod(1 - p**-0.8 for p in (2, 3, 5))
        assert doc["value"] == pytest.approx(expected, abs=1e-12)


class TestAsymptoticsCommands:
    def test_dickman(self, run):
        code, out, _ = run("dickman", "--u", "2.0")
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(1 - math.log(2), abs=1e-6)

    def test_dickman_mass(self, run):
        code, out, _ = run("dickman-mass", "--u-max", "5", "--h", "0.005")
        assert code == 0
        assert json.loads(out)["mass"] > 1.7

    def test_delta_estimate(self, run):
        code, out, _ = run("delta-estimate", "--u", "3.0", "--x", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] < 0.05

    @pytest.mark.parametrize("u", ["nan", "inf"])
    def test_delta_estimate_rejects_nonfinite_u(self, run, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("delta-estimate", "--u", u, "--x", "100")
        assert code == 1
        assert out == ""
        assert err == f"error: delta_estimate requires a finite u, got {u}\n"

    @pytest.mark.parametrize("argv, message", [
        ("dickman-mass --u-max 20 --h 0", "dickman_mass requires a step h > 0, got 0.0"),
        ("dickman --u 2 --h 0", "dickman requires a step h > 0, got 0.0"),
        ("dickman --u 2 --h -0.005", "dickman requires a step h > 0, got -0.005"),
        ("dickman-mass --h -0.005", "dickman_mass requires a step h > 0, got -0.005"),
        ("dickman --u nan", "dickman requires a finite u, got nan"),
        ("dickman-mass --u-max inf", "dickman_mass requires a finite u_max, got inf"),
        ("dickman --u 60", "u must be <= 49.99 at step h = 0.005, got 60.0"),
        ("dickman-mass --u-max -1", "dickman_mass requires u_max >= 0, got -1.0"),
        ("delta-estimate --u 9.0 --x 50",
         "delta_estimate at u = 9.0, x = 50 counts at x^u = 10^15.29, beyond the counter's x <= 1000000000000"),
        ("smooth-sum --n-primes 3 --c 9223372036854775808",
         "smooth_numbers requires bound < 2^63, got 9223372036854775808"),
        ("smooth-sum --n-primes -2 --c 1000", "first_primes requires k >= 0, got -2"),
        ("wiener-sum --n-primes -1 --c 1000", "first_primes requires k >= 0, got -1"),
        ("smooth-sum --n-primes -2 --c 1000 --trend", "first_primes requires k >= 0, got -2"),
        ("wiener-sum --n-primes -1 --c 1000 --trend", "first_primes requires k >= 0, got -1"),
        ("limit-beta1 --z 1/4 --jmax 0", "limit_beta1 requires at least one beta, got []"),
        ("limit-beta1 --z 1/4 --jmax -3", "limit_beta1 requires at least one beta, got []"),
    ])
    def test_bad_input_exits_1_with_one_line(self, run, argv, message):
        code, out, err = run(*argv.split())
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_huge_smooth_monoid_refused_at_once(self, run):
        code, out, err = run("smooth-sum", "--n-primes", "30", "--c", "1000000000000")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: smooth_numbers of 30 primes up to 1000000000000 lists more than ")
        assert err.endswith("over the 128 MiB limit\n")

    def test_psi_working_set_refused(self, run, monkeypatch):
        monkeypatch.setattr(arith, "ARRAY_BYTES_LIMIT", 2**20)
        code, out, err = run("psi-count", "--x", "1000000000", "--y", "997")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: psi_count at x = 1000000000, y = 997 needs")
        assert err.endswith("over the 1 MiB limit\n")


class TestSelfTest:
    def test_single_criterion(self, run):
        code, out, _ = run("self-test", "--criteria", "1")
        assert code == 0
        assert "criterion 01 PASS" in out

    def test_corruption_detected(self, run):
        code, out, err = run("self-test", "--criteria", "3", "--corrupt", "3")
        assert code == 2
        assert "criterion 03 FAIL" in out
        assert "n=2" in out  # witness coefficient is reported

    @pytest.mark.parametrize("argv", ["--criteria 5 --corrupt 5", "--criteria 1 --corrupt 3", "--corrupt 4"])
    def test_corruption_that_corrupts_nothing_refused(self, run, argv):
        code, out, err = run("self-test", *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_output_file(self, run, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run("self-test", "--criteria", "1,15", "--output", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["passed"] == 2 and doc["failed"] == 0


class TestEnvConfig:
    def test_env_default_used(self, run, monkeypatch, measure_file):
        monkeypatch.setenv("AFFKMS_TRUNCATION", "500")
        code, out, _ = run("t-beta", "--measure", measure_file(dirac(root(0, 1))),
                           "--beta", "3.0")
        assert code == 0
        partial = sum(c**-3.0 for c in range(1, 501))
        apery = 1.2020569031595942  # zeta(3)
        assert json.loads(out)["tail_mass"] == pytest.approx(1 - partial / apery, rel=1e-9)

    def test_bad_env_is_usage_error(self, run, monkeypatch):
        monkeypatch.setenv("AFFKMS_TRUNCATION", "many")
        code, _, err = run("psi-count", "--x", "10", "--y", "3")
        assert code == 1
        assert "AFFKMS_TRUNCATION" in err


class TestSubgroupFlag:
    def test_alias_on_quotient_eval(self, run):
        code1, out1, _ = run("quotient-eval", "--n", "6", "--m", "2", "--beta", "0.5",
                             "--monomial", "1,1,1")
        code2, out2, _ = run("quotient-eval", "--n", "6", "--subgroup", "2", "--beta", "0.5",
                             "--monomial", "1,1,1")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_restricted_sweep(self, run):
        code, out, _ = run("qz-coherence", "--level", "12", "--beta", "0.5",
                           "--subgroup", "4", "--count", "3")
        assert code == 0
        assert json.loads(out)["max_gap"] < 1e-12

    def test_bad_subgroup_divisor(self, run):
        code, _, err = run("qz-coherence", "--level", "12", "--beta", "0.5",
                           "--subgroup", "5", "--count", "3")
        assert code == 1
        assert "does not divide" in err


class TestCommandTable:
    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_help_exits_0(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: affkms {name}")

    def test_memory_error_exits_2_without_traceback(self, run, monkeypatch):
        def exhausted(args):
            raise MemoryError

        _, *rest = cli.COMMANDS["psi-count"]
        monkeypatch.setitem(cli.COMMANDS, "psi-count", (exhausted, *rest))
        code, out, err = run("psi-count", "--x", "10", "--y", "3")
        assert code == 2
        assert out == ""
        assert err == "violation: MemoryError\n"
