"""The pipeline a user runs, and the checks on what it produced.

One program run is ``syntax.parse_program`` -> ``typecheck.check_program``
(plus ``cli.check_factor_literals``, as ``skn run`` does) ->
``poly.lower_program`` -> ``eval.fixpoint`` -> ``cli.emit_tables``.  Every
call goes through the module attribute, so a tracer that replaces those
attributes sees it.

The checks compare the in-memory tables and the emitted TSV/JSON, parsed
back, against the independent references in :mod:`workloads`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from skn import cli, poly, semiring, syntax, typecheck
from skn import eval as skn_eval

from workloads import Case

# A real-semiring cell this far from its reference is wrong, not merely
# stopped early; it fails the run's correctness gate.  Cells off by more
# than the case's epsilon but less than this are counted in `failed`.
GROSS_TOLERANCE = 1e-6


@dataclass
class ProgramRun:
    case: Case
    mode: str
    lowered: object = None
    notes: list = field(default_factory=list)
    result: object = None
    emitted: dict = field(default_factory=dict)   # format -> text
    error: str | None = None


def run_program(case: Case, mode: str) -> ProgramRun:
    run = ProgramRun(case, mode)
    spec = semiring.SEMIRINGS[case.semiring]
    try:
        program = syntax.parse_program(case.source)
        checked = typecheck.check_program(program)
        cli.check_factor_literals(checked, spec)
        run.lowered = poly.lower_program(checked, mode, spec, notes=run.notes)
        run.result = skn_eval.fixpoint(run.lowered, spec, epsilon=case.epsilon)
        tables = [run.result.tables[name] for name in case.emit]
        for fmt in case.formats:
            run.emitted[fmt] = cli.emit_tables(tables, fmt, spec)
    except Exception as e:  # any failure of the program is a measured outcome
        run.error = f"{type(e).__name__}: {e}"
    return run


def run_pass(cases: list[Case], tracer=None) -> list[ProgramRun]:
    runs = []
    for case in cases:
        for mode in case.modes:
            if tracer is not None:
                tracer.mode = mode
            runs.append(run_program(case, mode))
    return runs


# ---------------------------------------------------------------------------
# reading emitted tables back

def _weight(text, semiring_name: str):
    if semiring_name == "boolean":
        if text in (True, False):
            return text
        return {"true": True, "false": False}[text]
    return float(text)


def parse_tsv(text: str, semiring_name: str) -> dict[str, dict[tuple, object]]:
    out: dict[str, dict[tuple, object]] = {}
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        rel = lines[0].removeprefix("# ")
        rows = out.setdefault(rel, {})
        for line in lines[2:]:
            *values, w = line.split("\t")
            rows[tuple(values)] = _weight(w, semiring_name)
    return out


def parse_json(text: str, semiring_name: str) -> dict[str, dict[tuple, object]]:
    return {t["relation"]: {tuple(e["values"]): _weight(e["weight"], semiring_name)
                            for e in t["entries"]}
            for t in json.loads(text)}


# ---------------------------------------------------------------------------
# checks

@dataclass
class Verdict:
    failed: bool = False        # some table is off its reference by more than epsilon
    gross: bool = False         # error, non-convergence, or a clearly wrong table
    max_abs_err: float = 0.0    # over real-semiring cells
    problems: list = field(default_factory=list)

    def note(self, problem: str, err: float | None = None) -> None:
        self.failed = True
        if err is None or err > GROSS_TOLERANCE:
            self.gross = True
        self.problems.append(problem)


def _compare(verdict: Verdict, where: str, got: np.ndarray, want: np.ndarray,
             case: Case) -> None:
    if got.shape != want.shape:
        verdict.note(f"{where}: shape {got.shape} != {want.shape}")
        return
    if case.semiring == "real":
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        verdict.max_abs_err = max(verdict.max_abs_err, err)
        if not err <= case.epsilon:
            verdict.note(f"{where}: max |cell - reference| = {err:.3g} > {case.epsilon:g}",
                         err)
    elif not np.array_equal(got, want):
        bad = int(np.sum(got != want))
        verdict.note(f"{where}: {bad} of {want.size} cells differ")


def _emitted_array(rows: dict[tuple, object], axes: list[list[str]]) -> np.ndarray:
    shape = tuple(len(a) for a in axes)
    cells = [rows.get(tuple(axes[k][i] for k, i in enumerate(idx)))
             for idx in np.ndindex(*shape)]
    if any(c is None for c in cells) or len(rows) != len(cells):
        raise KeyError("emitted rows do not cover the relation's values exactly")
    return np.array(cells).reshape(shape)


def check_run(run: ProgramRun) -> Verdict:
    verdict = Verdict()
    case = run.case
    if run.error is not None:
        verdict.note(f"{case.name} [{run.mode}]: {run.error}")
        return verdict
    if not run.result.converged:
        verdict.note(f"{case.name} [{run.mode}]: did not converge")
    for rel, want in case.expected.items():
        got = run.result.tables[rel].cells
        _compare(verdict, f"{case.name} [{run.mode}] {rel}", got, want.cells, case)
    parsers = {"tsv": parse_tsv, "json": parse_json}
    for fmt, text in run.emitted.items():
        tables = parsers[fmt](text, case.semiring)
        for rel in case.emit:
            want = case.expected[rel]
            where = f"{case.name} [{run.mode}] {rel} as {fmt}"
            try:
                got = _emitted_array(tables[rel], want.axes)
            except KeyError as e:
                verdict.note(f"{where}: {e}")
                continue
            _compare(verdict, where, got, want.cells, case)
    return verdict


def check_modes_agree(runs: list[ProgramRun]) -> list[tuple[str, str]]:
    """For each case run in both modes, every relation both lowered
    programs contain with the same parameters must have the same table.
    Returns (case name, problem) pairs."""
    problems = []
    by_case: dict[str, list[ProgramRun]] = {}
    for run in runs:
        by_case.setdefault(run.case.name, []).append(run)
    for name, group in by_case.items():
        if len(group) < 2 or any(r.error is not None for r in group):
            continue
        first, *rest = group
        for other in rest:
            for rel in first.lowered.relations:
                t = other.result.tables.get(rel.name)
                if t is None or t.params != rel.params:
                    continue
                if not np.array_equal(first.result.tables[rel.name].cells, t.cells):
                    problems.append((name, f"{rel.name} differs between "
                                           f"{first.mode} and {other.mode}"))
    return problems


def counters(runs: list[ProgramRun]) -> dict[str, int]:
    """Counts that must repeat exactly from pass to pass."""
    ok = [r for r in runs if r.error is None]
    return {
        "eval.rounds": sum(r.result.iterations for r in ok),
        "poly.instances": sum(len(r.lowered.relations) for r in ok),
        "poly.fallbacks": sum(len(r.notes) for r in ok),
        "cli.cells_emitted": sum(r.result.tables[n].cells.size * len(r.case.formats)
                                 for r in ok for n in r.case.emit),
    }
