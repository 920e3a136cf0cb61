"""The large-enough gather against the wrapper evaluated as written.

A lowered program keeps each large-enough wrapper's record on its outer
fresh, and the evaluator gathers from the target instance at one
canonical copy.  Rendering and reading the program back drops the
records, so the same wrappers are evaluated as written: that is the
reference here.
"""
import math
import os
import random
import zlib
from typing import Optional

import numpy as np

from skn import (
    BOOLEAN, MIN_TROPICAL, LargeEnoughCall, RelTable, check_program,
    enumerate_type, eval_relation, fixpoint, lower_program, parse_program,
    parse_weight_literal, smallest_large_enough,
)
from skn.poly import canonical_type
from skn.syntax import Fresh, Sum, TyVar, render_program, render_type, subgoals
from skn.typecheck import apply_subst

import gen
import oracle
from eqpat import envholes, envshell
from helpers import IDEMPOTENT_CORPUS, distinct3_source, load

LOWERED_DIR = os.path.join(os.path.dirname(__file__), "lowered")


def _records(program) -> list[LargeEnoughCall]:
    return [g.wrap for rel in program.relations for g in subgoals(rel.body)
            if isinstance(g, Fresh) and g.wrap is not None]


def _assert_gather_matches_written(source: str, spec) -> int:
    """Compare the lowered program's tables with those of its rendered
    text read back; return how many wrappers took the gather."""
    lowered = lower_program(check_program(parse_program(source)), "large-enough", spec)
    written = check_program(parse_program(render_program(lowered)))
    assert not _records(written)
    got, want = fixpoint(lowered, spec), fixpoint(written, spec)
    assert got.converged and want.converged
    assert got.tables.keys() == want.tables.keys()
    for name, table in want.tables.items():
        assert np.array_equal(got.tables[name].cells, table.cells), name
    return len(_records(lowered))


def test_gather_matches_written_wrapper_on_corpus_and_random_programs():
    gathered = 0
    for spec in (BOOLEAN, MIN_TROPICAL):
        for name in IDEMPOTENT_CORPUS:
            gathered += _assert_gather_matches_written(load(name), spec)
        for seed in range(50):
            gathered += _assert_gather_matches_written(gen.random_program(seed), spec)
    assert gathered >= 10


# The wrapper as written sums over every pair of caller-side and
# instance-side hole values, so the reference is kept to small grids.
MAX_CALLER_CELLS = 100


def _called_above_bound(seed: int) -> Optional[str]:
    """A random polymorphic relation over `a` and `b`, called from a
    monomorphic relation at sizes at or above its large-enough sizes, once
    with distinct variables and once with the first variable repeated
    wherever the types allow; None if the caller's grid is too large."""
    rng = random.Random(seed)
    b = gen._ProgramBuilder(rng, max_goal_depth=3)
    b.add_relation("poly", ["a", "b"])
    rel = parse_program(b.lines[0] + "\n").relations[0]
    bound = smallest_large_enough(rel)
    sigma = {tv: canonical_type(n + rng.randint(0, 1)) for tv, n in bound.items()}
    concrete = [apply_subst(sigma, ty) for _, ty in rel.params]
    if math.prod(t.size for t in concrete) > MAX_CALLER_CELLS:
        return None
    types = [render_type(t) for t in concrete]
    params = " ".join(f"(q{i} : {t})" for i, t in enumerate(types))
    distinct = " ".join(f"q{i}" for i in range(len(types)))
    repeated = " ".join("q0" if t == types[0] else f"q{i}" for i, t in enumerate(types))
    return (b.lines[0] + "\n"
            f"(defrel (root {params}) (poly {distinct}))\n"
            f"(defrel (root-repeated {params}) (poly {repeated}))\n")


# The hole under `right` follows two holes under `left`: where x is a
# right, those two are not realized and must not match y.
NESTED_HOLES = """
(defrel (payload (forall a) (x : (Sum (Prod a a) a)) (y : a))
  (disj
    (fresh ((p : a) (q : a)) (conj (== x (left (pair p q))) (=/= p y)))
    (fresh ((v : a)) (conj (== x (right v)) (== v y)))))
(defrel (payload-at (x : (Sum (Prod {t} {t}) {t})) (y : {t}))
  (payload x y))
"""


def test_gather_matches_written_wrapper_above_large_enough_sizes():
    gathered = 0
    sources = [s for s in map(_called_above_bound, range(100)) if s is not None]
    assert len(sources) >= 80
    for source in sources:
        for spec in (BOOLEAN, MIN_TROPICAL):
            gathered += _assert_gather_matches_written(source, spec)
    for n in (4, 5, 7):
        t = render_type(canonical_type(n))
        gathered += _assert_gather_matches_written(distinct3_source(t), BOOLEAN)
    for n in (5, 6):
        t = render_type(canonical_type(n))
        gathered += _assert_gather_matches_written(NESTED_HOLES.replace("{t}", t), BOOLEAN)
    assert gathered >= 200


def test_record_survives_recheck():
    lowered = lower_program(check_program(parse_program(load("sum-swap.skn"))),
                            "large-enough", BOOLEAN)
    body = lowered.relation("sum-swap-3-4").body
    rec = body.wrap
    assert isinstance(rec, LargeEnoughCall)
    assert rec.call.rel == "sum-swap$3_3"
    assert [x for x, _ in rec.copies] == [x for x, _ in rec.generic_env] == ["x", "y"]
    # the outer binders are the copies, in order
    assert [body.var, body.body.var] == [x2 for _, x2 in rec.copies]
    a, b = TyVar("a"), TyVar("b")
    assert rec.generic_env == (("x", Sum(a, b)), ("y", Sum(b, a)))
    assert [(tv, ty.size) for tv, ty in rec.sigma1] == [("a", 3), ("b", 4)]
    assert rec.sigma2 == (("a", canonical_type(3)), ("b", canonical_type(3)))
    # a second check keeps it too
    again = check_program(lowered).relation("sum-swap-3-4").body
    assert again.wrap is rec


def test_rendered_lowering_unchanged():
    t5 = render_type(canonical_type(5))
    sources = {"sum-swap": load("sum-swap.skn"), "option-map": load("option-map.skn"),
               "distinct3-5": distinct3_source(t5)}
    for name, source in sources.items():
        lowered = lower_program(check_program(parse_program(source)), "large-enough", BOOLEAN)
        with open(os.path.join(LOWERED_DIR, f"{name}.skn"), encoding="utf-8") as fh:
            assert render_program(lowered) == fh.read(), name


# The oracle loops over every parameter and fresh binder of a relation,
# so programs are kept to relations of at most this many such cells.
MAX_ORACLE_CELLS = 1000


def _oracle_cells(rel) -> int:
    return math.prod(ty.size for _, ty in rel.params) * \
        math.prod(g.ty.size for g in subgoals(rel.body) if isinstance(g, Fresh))


def _fingerprint(source, instance, spec) -> RelTable:
    """A table for `instance` of the polymorphic relation `source` whose
    weight at a tuple depends only on the tuple's shell and equality
    pattern over `source`'s parameter types, as a polymorphic relation's
    weight must, and tells most of them apart."""
    axes = [enumerate_type(ty) for _, ty in instance.params]
    cells = np.zeros(tuple(map(len, axes)), dtype=spec.dtype)
    for pos in np.ndindex(cells.shape):
        env = {x: axis[i] for (x, _), axis, i in zip(source.params, axes, pos)}
        holes = [envholes(tv, source.params, env) for tv in source.tyvars]
        key = repr((envshell(source.params, env), [[h.index(v) for v in h] for h in holes]))
        w = zlib.crc32(key.encode()) % 5
        cells[pos] = w % 2 if spec is BOOLEAN else w
    return RelTable(instance.name, instance.params, cells)


def test_large_calls_gather_monomorphize_and_oracle_agree():
    # Random programs whose concrete polymorphic calls sit at or above the
    # callee's large-enough sizes, with arguments built along the callee's
    # types, so most such calls become wrappers and take the gather.
    programs = gathered = 0
    for seed in range(300):
        checked = check_program(parse_program(gen.random_program(seed, large_calls=True)))
        mono = lower_program(checked, "monomorphize", BOOLEAN)
        wrapped = lower_program(checked, "large-enough", BOOLEAN)
        if not _records(wrapped) or max(map(_oracle_cells, mono.relations)) > MAX_ORACLE_CELLS:
            continue
        programs += 1
        gathered += len(_records(wrapped))
        param_types = {r.name: [ty for _, ty in r.params] for r in mono.relations}
        roots = [rel.name for rel in checked.relations if not rel.tyvars]
        for spec in (BOOLEAN, MIN_TROPICAL):
            results = [fixpoint(p, spec) for p in (wrapped, mono)]
            assert all(r.converged for r in results)
            for name in roots:
                assert np.array_equal(results[0].tables[name].cells,
                                      results[1].tables[name].cells), (seed, spec.name)
            gamma = {n: t.cells for n, t in results[1].tables.items()}
            for rel in mono.relations:
                cells = oracle.relation_cells(rel, gamma, spec.name, param_types,
                                              lambda text: parse_weight_literal(text, spec))
                for pos, w in cells.items():
                    assert results[1].tables[rel.name].cells[pos] == w, (seed, spec.name)
            # The weights of these programs' polymorphic relations rarely
            # tell apart the tuples the gather reads, so each lowering's
            # instances also get one table that does, and the roots are
            # evaluated over it once more.
            roots_over = []
            for program, result in zip((wrapped, mono), results):
                tables = dict(result.tables)
                for rel in program.relations:
                    source = checked.relation(rel.name.split("$")[0])
                    if source.tyvars:
                        tables[rel.name] = _fingerprint(source, rel, spec)
                roots_over.append([eval_relation(program.relation(n), tables, spec).cells
                                   for n in roots])
            for got, want in zip(*roots_over):
                assert np.array_equal(got, want), (seed, spec.name)
    assert programs >= 35 and gathered >= 50
