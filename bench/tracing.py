"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of skn's modules with timing
and counting wrappers while it is active, and puts the originals back on
exit.  Each layer is one module; the wrappers are installed where the
pipeline (or skn itself) looks the function up:

* ``skn.syntax.parse_program``, ``skn.typecheck.check_program``,
  ``skn.poly.lower_program``, ``skn.eval.fixpoint`` and
  ``skn.cli.emit_tables``, called by :mod:`pipeline`;
* ``skn.poly.check_program``, the re-check at the end of lowering;
* ``skn.eval.eval_relation``, called once per relation per round;
* ``skn.eval.parse_weight_literal``, the literal reads inside evaluation.

The fixpoint wrapper also passes the public ``on_round`` hook, to count
the relation-rounds whose table changed.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from skn import cli, poly, syntax, typecheck
from skn import eval as skn_eval
from skn.syntax import Call, Conj, Disj, Fresh

_GOAL_CHILDREN = {Conj: ("g1", "g2"), Disj: ("g1", "g2"), Fresh: ("body",)}


def _goals(goal):
    stack = [goal]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(getattr(g, f) for f in _GOAL_CHILDREN.get(type(g), ()))


def goal_nodes(program) -> int:
    return sum(1 for rel in program.relations for _ in _goals(rel.body))


def on_cycle(program) -> set[str]:
    """Relations in a recursive strongly connected component of the call
    graph: those that can reach themselves through calls."""
    calls = {rel.name: {g.rel for g in _goals(rel.body) if isinstance(g, Call)}
             for rel in program.relations}
    recursive = set()
    for start in calls:
        seen, stack = set(), list(calls[start])
        while stack:
            r = stack.pop()
            if r == start:
                recursive.add(start)
                break
            if r not in seen:
                seen.add(r)
                stack.extend(calls.get(r, ()))
    return recursive


class Tracer:
    """Accumulates one pass's per-layer numbers in ``self.stats``."""

    def __init__(self):
        self.mode = "monomorphize"
        self.stats: dict[str, float] = defaultdict(float)
        self._nonrecursive: set[str] = set()
        self._saved: list = []

    def reset(self) -> dict[str, float]:
        stats, self.stats = self.stats, defaultdict(float)
        return stats

    # -- installation -----------------------------------------------------

    def __enter__(self):
        patches = [
            (syntax, "parse_program", self._parse_program),
            (typecheck, "check_program", self._check_program),
            (poly, "lower_program", self._lower_program),
            (poly, "check_program", self._recheck),
            (skn_eval, "fixpoint", self._fixpoint),
            (skn_eval, "eval_relation", self._eval_relation),
            (skn_eval, "parse_weight_literal", self._parse_weight_literal),
            (cli, "emit_tables", self._emit_tables),
        ]
        for module, name, make in patches:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, metric: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stats[metric] += time.perf_counter() - t0

    def _parse_program(self, original):
        def parse_program(text):
            self.stats["syntax.source_bytes"] += len(text.encode("utf-8"))
            return self._timed("syntax.parse_s", original, text)
        return parse_program

    def _check_program(self, original):
        def check_program(p):
            return self._timed("typecheck.check_s", original, p)
        return check_program

    def _recheck(self, original):
        def check_program(p):
            return self._timed("poly.recheck_s", original, p)
        return check_program

    def _lower_program(self, original):
        def lower_program(p, mode, spec, *args, notes=None, **kwargs):
            notes = [] if notes is None else notes
            before = len(notes)
            lowered = self._timed("poly.lower_s", original, p, mode, spec,
                                  *args, notes=notes, **kwargs)
            self.stats["poly.fallbacks"] += len(notes) - before
            self.stats["poly.instances"] += len(lowered.relations)
            self.stats["poly.goal_nodes"] += goal_nodes(lowered)
            return lowered
        return lower_program

    def _fixpoint(self, original):
        def fixpoint(program, spec, *args, **kwargs):
            names = {rel.name for rel in program.relations}
            self._nonrecursive = names - on_cycle(program)
            kwargs["on_round"] = self._on_round
            result = self._timed(f"fixpoint_s.{self.mode}", original,
                                 program, spec, *args, **kwargs)
            self.stats["eval.rounds"] += result.iterations
            self.stats["eval.cells"] += sum(t.cells.size for t in result.tables.values())
            return result
        return fixpoint

    def _on_round(self, it, old, new):
        for name, table in new.items():
            self.stats["changed_relation_rounds"] += \
                not np.array_equal(old[name].cells, table.cells)

    def _eval_relation(self, original):
        def eval_relation(rel, tables, spec):
            self.stats["eval.rel_evals"] += 1
            t0 = time.perf_counter()
            try:
                return original(rel, tables, spec)
            finally:
                if rel.name in self._nonrecursive:
                    self.stats["eval.nonrecursive_s"] += time.perf_counter() - t0
        return eval_relation

    def _parse_weight_literal(self, original):
        def parse_weight_literal(text, spec):
            self.stats["semiring.literal_parses"] += 1
            return original(text, spec)
        return parse_weight_literal

    def _emit_tables(self, original):
        def emit_tables(tables, fmt, spec):
            out = self._timed("cli.emit_s", original, tables, fmt, spec)
            self.stats["cli.cells_emitted"] += sum(t.cells.size for t in tables)
            self.stats["cli.bytes_emitted"] += len(out.encode("utf-8"))
            return out
        return emit_tables


def derive(stats: dict[str, float]) -> dict[str, float]:
    """Turn one pass's raw stats into the reported per-layer metrics."""
    out = {k: v for k, v in stats.items()
           if not k.startswith("fixpoint_s.") and k != "changed_relation_rounds"}
    mono = stats.get("fixpoint_s.monomorphize", 0.0)
    large = stats.get("fixpoint_s.large-enough")
    out["eval.fixpoint_s"] = mono + (large or 0.0)
    out["eval.mono_fixpoint_s"] = mono
    # Workloads without polymorphic relations lower to the same program in
    # both modes, so their ratio is 1 by construction and is not re-run.
    out["eval.le_over_mono"] = large / mono if large is not None and mono else 1.0
    evals = stats.get("eval.rel_evals", 0)
    out["eval.changed_frac"] = stats.get("changed_relation_rounds", 0) / evals if evals else 0.0
    return out
