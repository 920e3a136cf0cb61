"""Batch driver: load a program (parse, check, read its factor literals,
lower it), run the fixpoint, and emit relation tables as TSV or JSON.
``--diff`` loads the program under both lowering modes instead and
compares their tables.

Exit codes: 0 ok; 1 an unreadable or undecodable source file,
parse/type/weight-literal errors, a program nested too deeply for the
recursion limit, a run that exhausts memory, an --epsilon that is
negative, nan or inf, or --diff given with a flag it would ignore; 2
lowering errors; 3 fixpoint non-convergence (in either mode under
--diff), including a round that yields nan; 4 table divergence in
--diff mode.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import poly, semiring, syntax, typecheck
from .eval import EPSILON, FixpointResult, RelTable, enumerate_type, fixpoint
from .semiring import SEMIRINGS, SemiringSpec, WeightLiteralError, render_weight
from .syntax import Factor, ParseError, Program, render_program, render_type, render_value

EXIT_BAD_PROGRAM = 1
EXIT_LOWERING = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DIVERGENCE = 4


@dataclass
class RunConfig:
    source: str
    semiring: str
    poly_mode: str = "monomorphize"
    epsilon: Optional[float] = None  # None: eval.EPSILON
    max_iters: int = 10000
    fmt: str = "tsv"
    relations: list = field(default_factory=list)
    diff: bool = False
    emit_lowered: Optional[str] = None

    def __post_init__(self):
        if self.epsilon is not None and not (0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and non-negative, not {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError("max-iters must be at least 1")
        ignored = [flag for flag, given in (("--emit-lowered", self.emit_lowered),
                                            ("--rel", self.relations),
                                            ("--format json", self.fmt == "json"))
                   if given]
        if self.diff and ignored:
            raise ValueError(f"--diff emits no tables; drop {', '.join(ignored)}")


class UnknownRelation(LookupError):
    """A relation named with --rel is not in the lowered program."""


def check_factor_literals(p: Program, spec: SemiringSpec) -> None:
    for rel in p.relations:
        for g in syntax.subgoals(rel.body):
            if isinstance(g, Factor):
                semiring.parse_weight_literal(g.literal, spec)


def _json_weight(w: np.generic, spec: SemiringSpec) -> object:
    # JSON has no infinity or nan: "inf", "-inf" and "nan" are written as text.
    x = w.item()
    return x if math.isfinite(x) else render_weight(w, spec)


def _rows(t: RelTable) -> Iterator[tuple[tuple[str, ...], np.generic]]:
    """Each cell's rendered argument values with its weight, in table
    order: every parameter type is enumerated once, and both the product
    of the listings and the flat cells are first-axis-major."""
    axes = [[render_value(v) for v in enumerate_type(ty)] for _, ty in t.params]
    return zip(itertools.product(*axes), t.cells.flat)


def emit_tables(tables: list[RelTable], fmt: str, spec: SemiringSpec) -> str:
    if fmt == "json":
        out = [{
            "relation": t.rel,
            "params": [{"name": x, "type": render_type(ty)} for x, ty in t.params],
            "entries": [{"values": list(values), "weight": _json_weight(w, spec)}
                        for values, w in _rows(t)],
        } for t in tables]
        return json.dumps(out, indent=2) + "\n"

    blocks = []
    for t in tables:
        lines = [f"# {t.rel}"]
        lines.append("\t".join([x for x, _ in t.params] + ["weight"]))
        for values, w in _rows(t):
            lines.append("\t".join(values + (render_weight(w, spec),)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def load_program(text: str, spec: SemiringSpec, mode: str) -> Program:
    """Parse, check and lower one program, reading its factor literals
    under `spec` before lowering."""
    checked = typecheck.check_program(syntax.parse_program(text))
    check_factor_literals(checked, spec)
    return poly.lower_program(checked, mode, spec)


def _select_tables(result: FixpointResult, lowered: Program,
                   wanted: list) -> list[RelTable]:
    order = lowered.names()
    if wanted:
        missing = [w for w in wanted if w not in result.tables]
        if missing:
            raise UnknownRelation(f"no such relation: {', '.join(missing)}")
        order = [n for n in order if n in wanted]
    return [result.tables[n] for n in order]


def diff_modes(cfg: RunConfig, text: str, spec: SemiringSpec,
               out=None) -> int:
    """Run both lowering modes and compare every shared relation table.
    Both modes are lowered before either is solved, so a lowering error
    costs no fixpoint."""
    out = sys.stdout if out is None else out
    lowered = {mode: load_program(text, spec, mode)
               for mode in ("monomorphize", "large-enough")}
    runs = {mode: (p, fixpoint(p, spec, epsilon=cfg.epsilon, max_iters=cfg.max_iters))
            for mode, p in lowered.items()}
    stuck = [mode for mode, (_, result) in runs.items() if not result.converged]
    if stuck:
        print(f"no convergence: {' and '.join(stuck)} did not converge within "
              f"{cfg.max_iters} iterations", file=out)
        return EXIT_NO_CONVERGENCE
    lowered_m, result_m = runs["monomorphize"]
    result_l = runs["large-enough"][1]
    # Same-size instances of differently shaped types can share a mangled
    # name across modes; only tables over identical parameter types are
    # directly comparable.
    shared = [rel.name for rel in lowered_m.relations
              if rel.name in result_l.tables
              and result_l.tables[rel.name].params == rel.params]
    for name in shared:
        a, b = result_m.tables[name], result_l.tables[name]
        if np.array_equal(a.cells, b.cells):
            continue
        for (values, wa), wb in zip(_rows(a), b.cells.flat):
            if not np.array_equal(wa, wb):
                print(f"divergence in {name} at ({', '.join(values)}): "
                      f"monomorphize={render_weight(wa, spec)} "
                      f"large-enough={render_weight(wb, spec)}", file=out)
                return EXIT_DIVERGENCE
    print("identical", file=out)
    return 0


def run(cfg: RunConfig, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    spec = SEMIRINGS[cfg.semiring]
    try:
        with open(cfg.source, encoding="utf-8") as fh:
            text = fh.read()
        if cfg.diff:
            return diff_modes(cfg, text, spec, out=out)
        lowered = load_program(text, spec, cfg.poly_mode)
        if cfg.emit_lowered:
            with open(cfg.emit_lowered, "w", encoding="utf-8") as fh:
                fh.write(render_program(lowered))
        result = fixpoint(lowered, spec, epsilon=cfg.epsilon, max_iters=cfg.max_iters)
        text = emit_tables(_select_tables(result, lowered, cfg.relations), cfg.fmt, spec)
    except (OSError, UnicodeDecodeError, ParseError, typecheck.TypeCheckError,
            WeightLiteralError, UnknownRelation) as e:
        print(f"error: {e}", file=err)
        return EXIT_BAD_PROGRAM
    except RecursionError:
        print("error: program nests too deeply for the recursion limit", file=err)
        return EXIT_BAD_PROGRAM
    except MemoryError:
        print("error: the run needs more memory than is available", file=err)
        return EXIT_BAD_PROGRAM
    except poly.LoweringError as e:
        print(f"error: {e}", file=err)
        return EXIT_LOWERING
    out.write(text)

    if not result.converged:
        stop = (f"stopped at round {result.iterations}, which yielded nan"
                if result.stopped_on_nan
                else f"did not converge within {cfg.max_iters} iterations")
        print(f"warning: fixpoint {stop}; tables are from the last round", file=err)
        return EXIT_NO_CONVERGENCE
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skn", description="weighted relational programs, tabulated bottom-up")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="evaluate a program and print its tables")
    runp.add_argument("file", help="program source (.skn)")
    runp.add_argument("--semiring", choices=sorted(SEMIRINGS),
                      default=os.environ.get("SKN_SEMIRING"),
                      help="weight semiring (or set SKN_SEMIRING)")
    runp.add_argument("--poly-mode", choices=["monomorphize", "large-enough"],
                      default="monomorphize")
    runp.add_argument("--rel", action="append", default=[], metavar="NAME",
                      help="emit only these relations (repeatable)")
    runp.add_argument("--epsilon", type=float,
                      help="real-semiring convergence tolerance, finite and "
                           f"non-negative (default {EPSILON:g})")
    runp.add_argument("--max-iters", type=int, default=10000)
    runp.add_argument("--format", choices=["tsv", "json"], default="tsv")
    runp.add_argument("--emit-lowered", metavar="PATH",
                      help="write the lowered monomorphic program here")
    runp.add_argument("--diff", action="store_true",
                      help="compare both poly modes instead of emitting tables")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.semiring is None:
        print("error: --semiring is required (or set SKN_SEMIRING)", file=sys.stderr)
        return EXIT_BAD_PROGRAM
    try:
        cfg = RunConfig(
            source=args.file,
            semiring=args.semiring,
            poly_mode=args.poly_mode,
            epsilon=args.epsilon,
            max_iters=args.max_iters,
            fmt=args.format,
            relations=args.rel,
            diff=args.diff,
            emit_lowered=args.emit_lowered,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_PROGRAM
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
