"""Tests of the benchmark itself: its generated programs, its references,
its checks and its output.  Run with ``python -m pytest bench``."""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skn import REAL, check_program, lower_program, parse_program, render_value
from skn.cli import emit_tables
from skn.eval import FixpointResult, RelTable
from skn.semiring import SEMIRINGS

import calibrate
import oracle
import pipeline
import run as bench_run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def small_cases():
    cases = [workloads.paths_case(seed, n=6) for seed in (1, 2, 3)]
    cases += [workloads.deep_case(seed, n=5) for seed in (1, 2)]
    bal = workloads.balanced_sum
    prod4 = ("Prod", bal(2), workloads.right_nested_sum(2))
    nested3 = workloads.right_nested_sum(3)
    cases += [workloads.distinct_case(3, bal(4)), workloads.distinct_case(2, bal(3)),
              workloads.distinct_case(2, prod4),
              workloads.sum_swap_case(bal(2), bal(3)), workloads.sum_swap_case(bal(1), bal(1)),
              workloads.sum_swap_case(prod4, nested3),
              workloads.option_map_case(bal(2), bal(2)), workloads.option_map_case(bal(1), bal(3)),
              workloads.option_map_case(nested3, prod4)]
    cases += [workloads.coins_case(p) for p in (500, 700, 990)]
    return cases


def oracle_fixpoint(program, semiring, max_rounds=5000):
    """Iterate the brute-force evaluator to its fixed point."""
    zero = oracle.ops(semiring)[0]
    dtype = bool if semiring == "boolean" else float
    param_types = {r.name: [ty for _, ty in r.params] for r in program.relations}

    def literal(text):
        return {"true": True, "false": False}[text] if semiring == "boolean" else float(text)

    gamma = {r.name: np.full(tuple(len(oracle.type_values(ty)) for ty in param_types[r.name]),
                             zero, dtype=dtype)
             for r in program.relations}
    for _ in range(max_rounds):
        new = {}
        for rel in program.relations:
            cells = np.empty_like(gamma[rel.name])
            for pos, w in oracle.relation_cells(rel, gamma, semiring, param_types,
                                                literal).items():
                cells[pos] = w
            new[rel.name] = cells
        if semiring == "real":
            done = all(np.max(np.abs(new[n] - gamma[n])) < 1e-15 for n in new)
        else:
            done = all(np.array_equal(new[n], gamma[n]) for n in new)
        gamma = new
        if done:
            return gamma
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_programs_type_check(workload):
    for seed in (1, 2):
        for case in workloads.build(workload, seed):
            checked = check_program(parse_program(case.source))
            names = {rel.name for rel in checked.relations}
            assert set(case.expected) <= names and set(case.emit) <= names


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = [c.source for c in workloads.build(workload, 7)]
        assert a == [c.source for c in workloads.build(workload, 7)]
        assert a != [c.source for c in workloads.build(workload, 8)]


@pytest.mark.parametrize("case", small_cases(), ids=lambda c: c.name)
def test_reference_agrees_with_oracle(case):
    checked = check_program(parse_program(case.source))
    lowered = lower_program(checked, "monomorphize", SEMIRINGS[case.semiring])
    got = oracle_fixpoint(lowered, case.semiring)
    types = {r.name: [ty for _, ty in r.params] for r in lowered.relations}
    for rel, want in case.expected.items():
        # The axes list each parameter type's values in canonical order.
        assert want.axes == [[render_value(v) for v in oracle.type_values(ty)]
                             for ty in types[rel]]
        if case.semiring == "real":
            assert np.allclose(got[rel], want.cells, rtol=0.0, atol=1e-12), rel
        else:
            assert np.array_equal(got[rel], want.cells), rel


@pytest.mark.parametrize("case", small_cases(), ids=lambda c: c.name)
def test_pipeline_passes_its_own_checks(case):
    for mode in case.modes:
        verdict = pipeline.check_run(pipeline.run_program(case, mode))
        if case.semiring == "real":
            assert not verdict.gross, verdict.problems
        else:
            assert not verdict.failed, verdict.problems


def _coins_run(fair_cell):
    case = workloads.coins_case(990)
    params = (("coin", check_program(parse_program(case.source)).relations[0].params[0][1]),)
    tables = {"fair-coin-flip": RelTable("fair-coin-flip", params,
                                         np.array([fair_cell, 1 - fair_cell])),
              "unfair-coin-flip": RelTable("unfair-coin-flip", params,
                                           np.array([0.99, 0.01]))}
    run = pipeline.ProgramRun(case, "monomorphize", result=FixpointResult(tables, True, 808))
    run.emitted["tsv"] = emit_tables([tables[n] for n in case.emit], "tsv", REAL)
    return run


def test_stopping_early_counts_as_failed_but_not_wrong():
    verdict = pipeline.check_run(_coins_run(0.49999995))
    assert verdict.failed and not verdict.gross
    assert math.isclose(verdict.max_abs_err, 5e-8, rel_tol=1e-3)
    assert not pipeline.check_run(_coins_run(0.5)).failed
    assert pipeline.check_run(_coins_run(0.4)).gross


def test_emitted_text_is_checked_against_the_reference():
    case = workloads.deep_case(1, n=5)
    run = pipeline.run_program(case, "monomorphize")
    assert not pipeline.check_run(run).failed
    run.emitted["json"] = run.emitted["json"].replace("true", "false", 1)
    assert pipeline.check_run(run).gross
    run = pipeline.run_program(case, "monomorphize")
    run.emitted["tsv"] = "\n".join(run.emitted["tsv"].split("\n")[:-2]) + "\n"
    assert pipeline.check_run(run).gross


def test_traced_counters_repeat_and_the_gate_catches_a_change():
    cases = [workloads.paths_case(1, n=6),
             workloads.distinct_case(3, workloads.balanced_sum(4)),
             workloads.coins_case(700)]
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            runs = pipeline.run_pass(cases, tracer)
        stats = tracer.reset()
        seen.append({k: stats.get(k, 0) for k in bench_run.DETERMINISTIC})
        assert pipeline.counters(runs)["eval.rounds"] == stats["eval.rounds"]
    assert seen[0] == seen[1]
    assert seen[0]["eval.rel_evals"] > 0 and seen[0]["semiring.literal_parses"] > 0

    gate = bench_run.Run(cases, pipeline, calibrate)
    gate.gate(seen[0])
    gate.gate(dict(seen[0], **{"eval.rounds": seen[0]["eval.rounds"] + 1}))
    assert gate.count_mismatch == [
        f"eval.rounds: {seen[0]['eval.rounds']} then {seen[0]['eval.rounds'] + 1}"]


def test_failures_count_programs_not_passes():
    run = bench_run.Run([workloads.coins_case(500), workloads.coins_case(990)],
                        pipeline, calibrate)
    for _ in range(3):
        run.pass_()
    assert (run.attempted, run.failed) == (2, 1)


def test_seeded_coins_stay_in_their_range():
    low, high = workloads.COINS_SEEDED_RANGE
    for seed in range(1, 6):
        seeded = [c for c in workloads.coins_cases(seed)
                  if int(c.name.split(".")[1]) not in workloads.COINS_FIXED_SKEWS]
        assert len(seeded) == workloads.COINS_SEEDED
        assert all(low <= int(c.name.split(".")[1]) < high for c in seeded)


def test_on_cycle_finds_recursive_relations_only():
    case = workloads.paths_case(1, n=6)
    program = check_program(parse_program(case.source))
    assert tracing.on_cycle(program) == {"dist"}


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 41)]
    value, pct = bench_run.tail(samples)
    assert value == 30.0 and pct == 75.0
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("trace", [0, 1])
def test_output_names_every_metric(trace, capsys):
    assert bench_run.main(["--workload", "poly", "--seed", "1",
                           "--seconds", "0", "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in last["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "coins",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
