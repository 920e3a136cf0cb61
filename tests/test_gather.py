"""The large-enough gather against the wrapper evaluated as written.

A lowered program keeps each large-enough wrapper's record on its fresh,
and the evaluator gathers from the target instance at one canonical
copy.  Rendering and reading the program back drops the
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
    BOOLEAN, MIN_TROPICAL, Call, Conj, RelTable, check_program,
    eval_relation, fixpoint, lower_program, parse_program,
    parse_weight_literal, smallest_large_enough,
)
from skn.eval import compile_relation
from skn.poly import canonical_type
from skn.syntax import Fresh, Sum, TyVar, render_program, render_type, subgoals
from skn.typecheck import apply_subst

import gen
import oracle
from eqpat import envholes, envshell
from helpers import IDEMPOTENT_CORPUS, distinct3_source, load

LOWERED_DIR = os.path.join(os.path.dirname(__file__), "lowered")


def _records(program) -> list[tuple]:
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
        for seed in range(100):
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


# The branch types of `_holes_behind_a_branch`: each a type, the pattern
# that takes it apart, and how many holes the pattern binds.
PRODUCTS = [("(Prod a a)", "(pair {0} {1})", 2), ("(Prod a Unit)", "(pair {0} sole)", 1),
            ("(Prod Unit a)", "(pair sole {0})", 1)]
HOLES = [("a", "{0}", 1), ("(Prod a a)", "(pair {0} {1})", 2)]


def _holes_behind_a_branch(seed: int) -> str:
    """A random relation over `a` whose first parameter is a sum with a
    product of holes in one branch and holes in the other, then one or two
    parameters of type `a`; its body takes each branch apart and compares
    the holes with those parameters.  It is called above its large-enough
    size from a relation that declares its own parameters in shuffled
    order.  Where the product branch comes first and is not taken, its
    holes come before the realized ones, as in `NESTED_HOLES`."""
    rng = random.Random(seed)
    branches = [rng.choice(PRODUCTS), rng.choice(HOLES)]
    rng.shuffle(branches)
    after = [f"y{i}" for i in range(rng.randint(1, 2))]

    def compare(depth, names):
        if depth == 0 or rng.random() < 0.4:
            if rng.random() < 0.2:
                return "(factor 1)"
            u, w = rng.sample(names, 2)
            return f"({rng.choice(['==', '=/='])} {u} {w})"
        return f"({rng.choice(['conj', 'disj'])} {compare(depth - 1, names)} " \
               f"{compare(depth - 1, names)})"

    arms = []
    for side, (_, pattern, n) in zip(("left", "right"), branches):
        holes = [f"{side[0]}{i}" for i in range(n)]
        binders = " ".join(f"({h} : a)" for h in holes)
        arms.append(f"(fresh ({binders}) (conj (== x ({side} {pattern.format(*holes)})) "
                    f"{compare(2, holes + after)}))")
    params = " ".join(f"({y} : a)" for y in after)
    source = (f"(defrel (holes (forall a) (x : (Sum {branches[0][0]} {branches[1][0]})) {params})\n"
              f"  (disj {arms[0]} {arms[1]}))\n")
    rel = parse_program(source).relations[0]
    t = canonical_type(smallest_large_enough(rel)["a"] + rng.randint(1, 2))
    concrete = [(x, render_type(apply_subst({"a": t}, ty))) for x, ty in rel.params]
    rng.shuffle(concrete)
    caller = " ".join(f"({x} : {ty})" for x, ty in concrete)
    return source + f"(defrel (holes-at {caller}) (holes x {' '.join(after)}))\n"


def test_gather_matches_monomorphize_behind_unrealized_branches():
    wrappers = 0
    for seed in range(40):
        checked = check_program(parse_program(_holes_behind_a_branch(seed)))
        for spec in (BOOLEAN, MIN_TROPICAL):
            wrapped = lower_program(checked, "large-enough", spec)
            wrappers += len(_records(wrapped))
            got = fixpoint(wrapped, spec).tables["holes-at"]
            want = fixpoint(lower_program(checked, "monomorphize", spec), spec).tables["holes-at"]
            assert np.array_equal(got.cells, want.cells), (seed, spec.name)
    assert wrappers == 80


def test_record_survives_recheck():
    lowered = lower_program(check_program(parse_program(load("sum-swap.skn"))),
                            "large-enough", BOOLEAN)
    body = lowered.relation("sum-swap-3-4").body
    # the record is the generic typing of the caller's variables
    a, b = TyVar("a"), TyVar("b")
    assert body.wrap == (("x", Sum(a, b)), ("y", Sum(b, a)))
    # the binders are their copies, in order, at the target's types
    t3 = canonical_type(3)
    [(x2, tx), (y2, ty)] = body.binders
    assert (tx, ty) == (Sum(t3, t3), Sum(t3, t3))
    assert {x2, y2}.isdisjoint({"x", "y"})
    # the body's first conjunct calls the target over the copies
    assert isinstance(body.body, Conj) and isinstance(body.body.g1, Call)
    assert body.body.g1.rel == "sum-swap$3_3"
    assert [v.name for v in body.body.g1.args] == [x2, y2]
    # a second check keeps the record
    again = check_program(lowered).relation("sum-swap-3-4").body
    assert again.wrap is body.wrap


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
MAX_ORACLE_CELLS = 10000


def _oracle_cells(rel) -> int:
    return math.prod(ty.size for _, ty in rel.params) * \
        math.prod(ty.size for g in subgoals(rel.body) if isinstance(g, Fresh)
                  for _, ty in g.binders)


def _fingerprint(source, instance, spec) -> RelTable:
    """A table for `instance` of the polymorphic relation `source` whose
    weight at a tuple depends only on the tuple's shell and equality
    pattern over `source`'s parameter types, as a polymorphic relation's
    weight must, and tells most of them apart."""
    axes = [oracle.type_values(ty) for _, ty in instance.params]
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
                roots_over.append([
                    eval_relation(compile_relation(program.relation(n), tables, spec),
                                  tables, spec).cells for n in roots])
            for got, want in zip(*roots_over):
                assert np.array_equal(got, want), (seed, spec.name)
    assert programs >= 40 and gathered >= 55


# The wrappers read back are evaluated as written, over every pair of
# caller-side and instance-side hole values, so programs whose written
# relations have more parameter-and-binder cells than this are skipped.
MAX_WRITTEN_CELLS = 10 ** 8


def test_gather_matches_written_wrapper_on_large_calls():
    programs = wrappers = 0
    for seed in range(300):
        source = gen.random_program(seed, large_calls=True)
        lowered = lower_program(check_program(parse_program(source)), "large-enough", BOOLEAN)
        written = check_program(parse_program(render_program(lowered)))
        if not _records(lowered) or \
                max(map(_oracle_cells, written.relations)) > MAX_WRITTEN_CELLS:
            continue
        programs += 1
        wrappers += len(_records(lowered))
        for spec in (BOOLEAN, MIN_TROPICAL):
            _assert_gather_matches_written(source, spec)
    assert programs >= 30 and wrappers >= 40
