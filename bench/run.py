"""Benchmark of the skn pipeline on one seeded workload.

    python3 bench/run.py --workload paths --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; skn is imported from ``src/``, and the
run stops with exit code 2 if it is not there.  One run generates the
workload's programs from the seed, runs one untimed warm-up pass and then
timed passes for at least ``--seconds`` (and at least 11 passes, so that
the tail percentile has ten samples beyond it).  A pass runs every
program of the workload through parse -> check -> lower -> fixpoint ->
emit, in every mode the program lists, and every pass is checked against
references computed without skn.  Pass times are scaled to a nominal
machine speed (see ``calibrate.py``); set-up time, ``import skn`` in a
fresh interpreter, is sampled 9 times over the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead.  The counters that must repeat exactly are
compared across all passes of the run; any difference fails it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
is the number of programs of one pass (a program run in two modes counts
twice), and ``failed`` the number of those that missed their reference
in some pass, so both depend only on the inputs and not on how many
passes fit in the run.  The lines before it give the environment, the
generated inputs (size and SHA-256) and every metric with its unit,
including ``failed_frac`` and ``max_abs_err``.  Those two are 0 on the
exact-semiring workloads, so the JSON carries them as ``failed`` and
``correct`` rather than as metrics.
NOTES.md says why each workload was chosen.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("paths", "deep", "poly", "coins")
SETUP_SAMPLES = 9
MIN_TAIL_SAMPLES = 11
MIN_TRACED_PASSES = 2
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import skn; "
                "print(time.perf_counter() - t0)")
DETERMINISTIC = ("eval.rounds", "eval.rel_evals", "poly.instances", "poly.fallbacks",
                 "semiring.literal_parses", "cli.cells_emitted")
PER_LAYER_UNITS = {
    "syntax.parse_s": "s", "syntax.source_bytes": "bytes",
    "typecheck.check_s": "s",
    "poly.lower_s": "s", "poly.recheck_s": "s", "poly.instances": "count",
    "poly.fallbacks": "count", "poly.goal_nodes": "count",
    "eval.fixpoint_s": "s", "eval.mono_fixpoint_s": "s", "eval.le_over_mono": "ratio",
    "eval.rounds": "count", "eval.rel_evals": "count", "eval.changed_frac": "ratio",
    "eval.nonrecursive_s": "s", "eval.cells": "count",
    "semiring.literal_parses": "count",
    "cli.emit_s": "s", "cli.cells_emitted": "count", "cli.bytes_emitted": "bytes",
    "trace.untraced_pass_s": "s", "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(), "commit": commit}


def setup_seconds() -> float:
    """Seconds to ``import skn`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile."""
    xs = sorted(samples)
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs)


class Run:
    """Bookkeeping for one benchmark run: checks every pass and gates the
    counters that must repeat."""

    def __init__(self, cases, pipeline, calibrate):
        self.cases = cases
        self.pipeline = pipeline
        self.calibrate = calibrate
        self.programs = set()       # (case, mode) pairs run
        self.missed = set()         # ... of which some run missed its reference
        self.gross = []
        self.max_abs_err = 0.0
        self.first_counts = {}
        self.count_mismatch = []

    def pass_(self, tracer=None) -> tuple[float, float]:
        """One checked pass: its wall time, and that time scaled to the
        calibration's nominal machine speed."""
        before = self.calibrate.machine_seconds()
        t0 = time.perf_counter()
        runs = self.pipeline.run_pass(self.cases, tracer)
        seconds = time.perf_counter() - t0
        after = self.calibrate.machine_seconds()
        self._check(runs)
        return seconds, seconds * 2 * self.calibrate.NOMINAL_S / (before + after)

    def _check(self, runs) -> None:
        disagree = self.pipeline.check_modes_agree(runs)
        self.gross.extend(f"{name}: {problem}" for name, problem in disagree)
        bad_cases = {name for name, _ in disagree}
        for run in runs:
            verdict = self.pipeline.check_run(run)
            key = (run.case.name, run.mode)
            self.programs.add(key)
            if verdict.failed or run.case.name in bad_cases:
                self.missed.add(key)
            self.max_abs_err = max(self.max_abs_err, verdict.max_abs_err)
            if verdict.gross:
                self.gross.extend(verdict.problems)
        self.gate(self.pipeline.counters(runs))

    @property
    def attempted(self) -> int:
        return len(self.programs)

    @property
    def failed(self) -> int:
        return len(self.missed)

    def gate(self, counts: dict) -> None:
        for k, v in counts.items():
            first = self.first_counts.setdefault(k, v)
            if v != first:
                self.count_mismatch.append(f"{k}: {first} then {v}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skn" / "__init__.py").is_file():
        print(f"error: no skn sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibrate
    import pipeline
    import tracing
    import workloads

    env = environment()
    print("env " + json.dumps(env))
    cases = workloads.build(args.workload, args.seed)
    for case in cases:
        data = case.source.encode("utf-8")
        print(f"input {case.name} {case.semiring} modes={','.join(case.modes)} "
              f"bytes={len(data)} sha256={hashlib.sha256(data).hexdigest()}")

    run = Run(cases, pipeline, calibrate)
    run.pass_()  # warm-up, untimed
    start = time.perf_counter()
    deadline = start + args.seconds
    metrics: dict[str, dict] = {}

    def report(name, value, unit, how):
        print(f"metric {name} = {value:.6g} {unit}  ({how})")
        metrics[name] = {"value": value, "unit": unit}

    if args.trace == 0:
        # Set-up samples are spread over the run, so that one busy moment
        # of a shared machine does not set them all.
        setup, passes = [setup_seconds()], []
        while time.perf_counter() < deadline or len(passes) < MIN_TAIL_SAMPLES:
            passes.append(run.pass_())
            due = start + len(setup) * args.seconds / SETUP_SAMPLES
            if len(setup) < SETUP_SAMPLES and time.perf_counter() >= due:
                setup.append(setup_seconds())
        setup += [setup_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
        raw = [r for r, _ in passes]
        scaled = [s for _, s in passes]
        print(f"raw pass wall time: median {statistics.median(raw):.6g} s, "
              f"min {min(raw):.6g} s, max {max(raw):.6g} s over {len(raw)} passes")
        report("setup_s", statistics.median(setup), "s",
               f"median of {len(setup)} fresh-interpreter imports, not scaled")
        report("pass_s", statistics.median(scaled), "s",
               f"median of {len(scaled)} passes, scaled to nominal speed")
        value, pct = tail(scaled)
        report("pass_s_tail", value, "s",
               f"p{pct:.0f} of {len(scaled)} scaled passes, 10 beyond it")
        report("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "MB", "peak resident memory of this process")
    else:
        plain, traced, layers = [], [], []
        tracer = tracing.Tracer()
        while time.perf_counter() < deadline or len(traced) < MIN_TRACED_PASSES:
            plain.append(run.pass_()[1])
            with tracer:
                traced.append(run.pass_(tracer)[1])
            stats = tracer.reset()
            run.gate({k: stats.get(k, 0) for k in DETERMINISTIC})
            layers.append(tracing.derive(stats))
        for name, unit in PER_LAYER_UNITS.items():
            if name.startswith("trace."):
                continue
            values = [layer.get(name, 0.0) for layer in layers]
            report(name, statistics.median(values), unit,
                   f"median of {len(layers)} traced passes")
        pass_s, traced_s = statistics.median(plain), statistics.median(traced)
        report("trace.untraced_pass_s", pass_s, "s",
               f"median of {len(plain)} untraced passes, scaled to nominal speed")
        report("trace.overhead_frac", traced_s / pass_s - 1, "ratio",
               f"median scaled traced pass {traced_s:.6g} s over "
               f"trace.untraced_pass_s, minus 1")

    failed_frac = run.failed / run.attempted
    print(f"check failed_frac = {failed_frac:.6g} ratio  "
          f"({run.failed} of {run.attempted} programs off their reference "
          f"in some pass)")
    print(f"check max_abs_err = {run.max_abs_err:.6g} weight  "
          f"(largest |cell - reference| over real-semiring cells)")
    for problem in run.gross[:20]:
        print(f"wrong {problem}")
    for problem in run.count_mismatch[:20]:
        print(f"nondeterministic {problem}")
    correct = not run.gross and not run.count_mismatch
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
