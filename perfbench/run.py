"""Benchmark of affkms: one workload, measured for a fixed time, outputs checked afterwards.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the program is imported from ``src``.
A run first starts a few fresh interpreters that import affkms and build the
prime table (``setup_s``).  It then repeats rounds of the workload until
``--seconds`` have passed.  A round clears the program's caches, generates
its inputs from (workload, seed, round index), makes every call in one
thread, each after the previous one returns, and then makes three CLI calls
in fresh interpreters (``cli_cold_s``).  Only after the last round does it
check every output against the oracles and print one JSON line.

With ``--trace 1`` every other round records one span per call, and the
run prints the per-layer metrics instead, with the tracing overhead: the
median traced round minus the median untraced one.  The spans and their
self times go to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("certify", "evaluate", "critical", "selftest")
SETUP_SAMPLES = 7
COLD_PER_ROUND = 3
CHILD_TIMEOUT_S = 60

# a fresh interpreter's set-up: import affkms (numpy included) and build the prime table
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import affkms; "
    "affkms.arith.first_primes(1); print(time.perf_counter() - t0)"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "cli_cold_s": "s",
}

FAMILIES = ("FiniteN", "LebesgueInf", "FromMeasure", "LowTemp", "Quotient", "QuotientChar", "QZSubgroup", "QZChar")

# name -> unit; ".s" is seconds per traced round, counts are per traced round
PER_LAYER = {
    "measures.check_subconformal.s": "s",
    "measures.check_subconformal.calls": "count",
    "measures.check_subconformal.subsets": "count",
    "measures.check_subconformal.max_call_s": "s",
    "measures.apply_A_inv.s": "s",
    "measures.apply_A_inv.calls": "count",
    "measures.apply_A_inv.dense_mb": "MB",
    "measures.decompose.s": "s",
    "measures.extremal_measure.s": "s",
    "measures.pushforward.s": "s",
    "measures.t_beta.s": "s",
    **{f"states.eval_state.{f}.{m}": u for f in FAMILIES for m, u in (("s", "s"), ("calls", "count"))},
    "states.kms_residual.s": "s",
    "states.qz_coherence.s": "s",
    "states.eval_element.s": "s",
    "states.reconstruct_check.s": "s",
    "states.h_beta_cache.hits": "count",
    "states.h_beta_cache.misses": "count",
    "algebra.mul.s": "s",
    "algebra.mul.terms": "count",
    "algebra.projection_eF.s": "s",
    "arith.hurwitz_zeta.s": "s",
    "arith.hurwitz_zeta.calls": "count",
    "states.limit_beta1.s": "s",
    "asymptotics.psi_count.s": "s",
    "asymptotics.psi_count.calls": "count",
    "asymptotics.psi_memo.entries": "count",
    "asymptotics.delta_estimate.s": "s",
    "asymptotics.dickman.s": "s",
    "asymptotics.dickman_mass.s": "s",
    "asymptotics.smooth_sums.s": "s",
    "arith.factor_cache.hits": "count",
    "arith.factor_cache.misses": "count",
    **{f"acceptance.criterion_{n:02d}.s": "s" for n in range(1, 18)},
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}

# metrics computed from the inputs rather than read from the program
COMPUTED = ("measures.apply_A_inv.dense_mb", "algebra.mul.terms")

# spans that also count toward a group metric
GROUPS = {
    "asymptotics.smooth_harmonic_sum": "asymptotics.smooth_sums",
    "asymptotics.wiener_sum": "asymptotics.smooth_sums",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    r = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(r.stdout.split()[-1])


@dataclass
class ColdResult:
    seconds: float
    code: int
    stdout: str


def cold_call(argv: list[str]) -> ColdResult:
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "affkms.cli", *argv],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    return ColdResult(time.perf_counter() - t0, r.returncode, r.stdout)


class Tracer:
    """Spans (id, parent, name, start, end) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []

    def begin(self, name: str, parent: int | None) -> int:
        self.spans.append([len(self.spans), parent, name, time.perf_counter(), None])
        return len(self.spans) - 1

    def end(self, sid: int) -> float:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        return span[4] - span[3]

    @staticmethod
    def span_cost(samples: int = 20_000) -> float:
        """Seconds one begin/end pair costs, from a throwaway tracer."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(samples):
            probe.end(probe.begin("probe", None))
        return (time.perf_counter() - t0) / samples

    def self_times(self) -> dict[str, dict[str, float]]:
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, t0, t1 in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
        return out


@dataclass
class Round:
    traced: bool
    ops: list
    outcomes: list
    wall: float
    caches: dict[str, float]
    cold: list
    durations: list[float] = field(default_factory=list)


def run_round(W, name: str, seed: int, k: int, tracer: Tracer | None, root_span: int | None) -> Round:
    rng = random.Random(f"{name}:{seed}:{k}")
    W.clear_caches()
    workload = W.WORKLOADS[name]
    ops = workload.build(rng, k)
    colds = [workload.cold(rng) for _ in range(COLD_PER_ROUND)]
    outcomes, durations = [], []
    rid = tracer.begin("round", root_span) if tracer else None
    t0 = time.perf_counter()
    for op in ops:
        sid = tracer.begin(op.span, rid) if tracer else None
        try:
            out = W.Outcome(value=op.call())
        except Exception as err:  # the failure is the outcome; checks judge it
            out = W.Outcome(error=err)
        if tracer:
            durations.append(tracer.end(sid))
        outcomes.append(out)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(rid)
    caches = W.cache_stats()
    cold = [(c, cold_call(c.argv)) for c in colds]
    return Round(tracer is not None, ops, outcomes, wall, caches, cold, durations)


def check_all(rounds: list[Round]) -> tuple[int, int, list[str], dict[str, list[str]]]:
    """Attempted and failed calls, the unexpected failures, and the failures of each known fault."""
    attempted = failed = 0
    unexpected: list[str] = []
    known: dict[str, list[str]] = defaultdict(list)
    for r in rounds:
        calls = [(op.span, op.fault, op.check, (out,)) for op, out in zip(r.ops, r.outcomes)]
        calls += [("cli " + c.argv[0], None, c.check, (res.code, res.stdout)) for c, res in r.cold]
        for what, fault, check, args in calls:
            attempted += 1
            try:
                why = check(*args)
            except Exception as err:  # a check that cannot run counts the call as failed
                why = f"check raised {type(err).__name__}: {err}"
            if why is None:
                continue
            failed += 1
            if fault is None:
                unexpected.append(f"{what}: {why}")
            else:
                known[fault].append(why)
    return attempted, failed, unexpected, known


def end_to_end(rounds: list[Round], setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    timed = [r for r in rounds if not r.traced]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall for r in timed),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": statistics.median(len(r.ops) / r.wall for r in timed),
        "cli_cold_s": statistics.median(res.seconds for r in rounds for _, res in r.cold),
    }


def per_layer(rounds: list[Round]) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    totals: dict[str, float] = defaultdict(float)
    max_call: dict[str, float] = defaultdict(float)
    for r in traced:
        for op, out, dt in zip(r.ops, r.outcomes, r.durations):
            for span in (op.span, GROUPS.get(op.span)):
                if span:
                    totals[span + ".s"] += dt
                    totals[span + ".calls"] += 1
            max_call[op.span] = max(max_call[op.span], dt)
            for key, v in op.counts.items():
                totals[key] += v
            if op.derive and out.error is None:
                for key, v in op.derive(out.value).items():
                    totals[key] += v
        for key, v in r.caches.items():
            totals[key] += v
    values = {name: totals.get(name, 0.0) / len(traced) for name in PER_LAYER}
    values["measures.check_subconformal.max_call_s"] = max_call["measures.check_subconformal"]
    values["trace.overhead_s"] = (
        statistics.median(r.wall for r in traced)
        - statistics.median(r.wall for r in rounds if not r.traced)
    )
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "affkms" / "__init__.py").is_file():
        print(f"perfbench: no affkms package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as W

    tracer = Tracer() if args.trace else None
    root_span = tracer.begin("run", None) if tracer else None
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        rounds.append(run_round(W, args.workload, args.seed, k, tracer if traced else None, root_span))
        if k == 0:
            # later rounds keep their outputs for the checks, so the high-water mark
            # after them would grow with the number of rounds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        enough = time.perf_counter() - start >= args.seconds
        if enough and (not args.trace or len(rounds) >= 2):
            break
    if tracer:
        tracer.end(root_span)

    print("perfbench: round walls " + " ".join(f"{r.wall:.4f}{'t' if r.traced else ''}" for r in rounds),
          file=sys.stderr)
    t_check = time.perf_counter()
    attempted, failed, unexpected, known = check_all(rounds)
    print(f"perfbench: checks took {time.perf_counter() - t_check:.1f} s", file=sys.stderr)
    for line in unexpected[:20]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    for fault, whys in known.items():
        print(f"perfbench: known fault {fault}: {len(whys)} failed, e.g. {whys[0]}", file=sys.stderr)

    if args.trace:
        values, units = per_layer(rounds), PER_LAYER
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "round_wall_s": {
                    "traced": [r.wall for r in rounds if r.traced],
                    "untraced": [r.wall for r in rounds if not r.traced],
                },
                "computed_from_inputs": list(COMPUTED),
                "span_cost_s": Tracer.span_cost(),
                "per_layer": values,
                "self_time": tracer.self_times(),
                "spans": tracer.spans,
            }, fh)
    else:
        values, units = end_to_end(rounds, setup, peak_rss_mb), END_TO_END
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
