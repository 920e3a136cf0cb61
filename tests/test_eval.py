import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skn import (
    BOOLEAN, MIN_TROPICAL, REAL, Left, Pair, Prod, Right, SOLE, Sum, TyVar,
    UNIT, Var, check_program, enumerate_type, eval_relation, fixpoint,
    lower_program, parse_program, type_size,
)
from skn import eval as skn_eval
from skn.eval import zero_table
from skn.semiring import parse_weight_literal
from skn.syntax import Conj, Disj, Disunify, Factor, Fresh, RelationDef, Unify

import gen
import oracle
import props
from helpers import (
    CORPUS, IDEMPOTENT_CORPUS, chain_source, checked, load, run_source,
    skewed_coins_source, walk_source,
)

S2 = Sum(UNIT, UNIT)
S4 = Sum(UNIT, Sum(UNIT, Sum(UNIT, UNIT)))


# ---------------------------------------------------------------------------
# sizes, enumeration, indexing

def test_type_sizes():
    assert type_size(UNIT) == 1
    assert type_size(S2) == 2
    assert type_size(Prod(S2, S2)) == 4


def test_tyvar_has_no_size():
    with pytest.raises(ValueError):
        type_size(TyVar("a"))


def test_enumerate_sum():
    assert enumerate_type(S2) == [Left(SOLE), Right(SOLE)]


def test_enumerate_unit():
    assert enumerate_type(UNIT) == [SOLE]


def test_enumerate_prod_first_major():
    assert enumerate_type(Prod(S2, UNIT)) == \
        [Pair(Left(SOLE), SOLE), Pair(Right(SOLE), SOLE)]


@st.composite
def small_types(draw):
    t = draw(st.recursive(
        st.just(UNIT),
        lambda kids: st.builds(Sum, kids, kids) | st.builds(Prod, kids, kids),
        max_leaves=7,
    ))
    return t if type_size(t) <= 64 else S2


@given(small_types())
@settings(max_examples=300, deadline=None)
def test_index_bijection(t):
    values = enumerate_type(t)
    assert len(values) == type_size(t)
    for i, v in enumerate(values):
        assert props.unify_hot_cells(v, t) == [i]


# ---------------------------------------------------------------------------
# goal evaluation by the scalar reference

def _goal_weight(g, env, spec):
    return oracle.goal_weight(g, {}, env, spec.name, {},
                              lambda text: parse_weight_literal(text, spec))


def test_factor_goal_weight():
    assert _goal_weight(Factor("0.7"), {}, REAL) == 0.7


def test_unify_goal_weight():
    g = Unify(Var("coin"), Left(SOLE, S2), S2)
    assert _goal_weight(g, {"coin": Left(SOLE)}, REAL) == 1.0
    assert _goal_weight(g, {"coin": Right(SOLE)}, REAL) == 0.0


def test_fresh_finds_distinct_value():
    g = Fresh("y", S2, Disunify(Var("x"), Var("y"), S2))
    assert _goal_weight(g, {"x": Left(SOLE)}, BOOLEAN) == True


def test_eval_relation_examples():
    p = check_program(parse_program(load("coin-flip.skn")))
    table = eval_relation(p.relations[0], {}, BOOLEAN)
    assert table.cells.tolist() == [True, True]

    p = check_program(parse_program(load("coins.skn")))
    unfair = p.relation("unfair-coin-flip")
    table = eval_relation(unfair, {}, REAL)
    assert table.cells.tolist() == [0.7, 0.3]

    p = check_program(parse_program(load("connect.skn")))
    graph = p.relation("graph")
    table = eval_relation(graph, {n: zero_table(r, MIN_TROPICAL)
                                  for n, r in [(x.name, x) for x in p.relations]},
                          MIN_TROPICAL)
    expected = np.full((4, 4), math.inf)
    for i, j in [(0, 1), (1, 0), (1, 2), (3, 2)]:
        expected[i, j] = 1.0
    assert np.array_equal(table.cells, expected)


# ---------------------------------------------------------------------------
# fixpoints

def test_connect_boolean_reachability():
    _, res = run_source(load("connect.skn"), BOOLEAN)
    want = np.array([
        [True, True, True, False],
        [True, True, True, False],
        [False, False, False, False],
        [False, False, True, False],
    ])
    assert np.array_equal(res.tables["connect"].cells, want)
    assert res.converged


def test_connect_tropical_shortest_paths():
    _, res = run_source(load("connect.skn"), MIN_TROPICAL)
    inf = math.inf
    want = np.array([
        [2.0, 1.0, 2.0, inf],
        [1.0, 2.0, 1.0, inf],
        [inf, inf, inf, inf],
        [inf, inf, 1.0, inf],
    ])
    assert np.array_equal(res.tables["connect"].cells, want)


def test_fair_coin_fixpoint():
    _, res = run_source(load("coins.skn"), REAL, epsilon=1e-9, max_iters=200)
    assert res.converged and res.iterations <= 200
    # independent recurrence: w <- 0.58 w + 0.21
    w = 0.0
    for _ in range(200):
        w = 0.58 * w + 0.21
    for cell in res.tables["fair-coin-flip"].cells:
        assert abs(cell - w) < 1e-6
        assert abs(cell - 0.5) < 1e-6


def test_non_convergence_reported():
    # weight keeps growing: w <- 2w + 1 has no finite fixpoint
    src = "(defrel (grow (x : Unit)) (disj (factor 1) (conj (factor 2.0) (grow x))))"
    _, res = run_source(src, REAL, epsilon=1e-9, max_iters=50)
    assert not res.converged and res.iterations == 50


def test_overflow_to_inf_is_not_convergence():
    # w <- 2w + 1 reaches inf after about 1024 rounds, and inf = 2 inf + 1;
    # a round that changes by inf - inf = nan is not within any tolerance
    src = "(defrel (grow (x : Unit)) (disj (factor 1) (conj (factor 2.0) (grow x))))"
    _, res = run_source(src, REAL, max_iters=1100)
    assert not res.converged and res.iterations == 1100


def _recursive_group(source):
    lowered = lower_program(checked(source), "monomorphize", REAL)
    [rels] = [rels for rels, recursive in skn_eval._call_graph_sccs(lowered) if recursive]
    return rels


def test_affinity_by_syntax():
    assert skn_eval._affine(_recursive_group(load("coins.skn")))
    # (conj (connect x z) (connect z y)) calls the group on both sides
    assert not skn_eval._affine(_recursive_group(load("connect.skn")))


def test_negative_real_weights_solved():
    # alt = 1 - alt / 2 has A = [-0.5]: the solve needs no sign condition
    src = "(defrel (alt (x : Unit)) (disj (factor 1) (conj (factor -0.5) (alt x))))"
    _, res = run_source(src, REAL)
    assert res.converged and res.iterations == 1
    assert abs(res.tables["alt"].cells[0] - 2 / 3) <= 1e-12


def test_group_above_cell_bound_iterates(monkeypatch):
    monkeypatch.setattr(skn_eval, "MAX_SOLVE_CELLS", 1)
    _, res = run_source(skewed_coins_source(), REAL, epsilon=1e-9)
    assert res.converged and res.iterations > 100
    # stopped by the contraction bound, not by two rounds within 1e-9
    for cell in res.tables["fair-coin-flip"].cells:
        assert abs(cell - 0.5) <= 1e-9


def test_contraction_stop_within_tolerance(monkeypatch):
    # The rate estimate from consecutive rounds approaches the true rate
    # from below.  Stopping once the bound it gives is within ε ended this
    # walk 1.02e-9 from its solved table.
    src = walk_source(4)
    _, solved = run_source(src, REAL, epsilon=1e-9)
    assert solved.iterations == 1
    monkeypatch.setattr(skn_eval, "MAX_SOLVE_CELLS", 0)
    _, res = run_source(src, REAL, epsilon=1e-9)
    assert res.converged and res.iterations > 1000
    assert np.abs(res.tables["hit"].cells - solved.tables["hit"].cells).max() <= 1e-9


def test_idempotent_fixpoints_terminate_exactly():
    for name in IDEMPOTENT_CORPUS:
        for spec in (BOOLEAN, MIN_TROPICAL):
            for mode in ("monomorphize", "large-enough"):
                lowered, res = run_source(load(name), spec, mode)
                assert res.converged, (name, spec.name, mode)
                # one more round leaves every table bit-identical
                again = {r.name: eval_relation(r, res.tables, spec)
                         for r in lowered.relations}
                for n, t in again.items():
                    assert np.array_equal(t.cells, res.tables[n].cells)


def test_boolean_monotonicity_small():
    assert props.check_boolean_monotonicity(
        [load(n) for n in IDEMPOTENT_CORPUS], min_cases=100) >= 100


# ---------------------------------------------------------------------------
# solving order: one call-graph component at a time, callees first

@pytest.fixture
def evals(monkeypatch):
    """Counts `eval.eval_relation` calls by relation name."""
    counts = collections.Counter()
    original = skn_eval.eval_relation

    def counting(rel, tables, spec):
        counts[rel.name] += 1
        return original(rel, tables, spec)

    monkeypatch.setattr(skn_eval, "eval_relation", counting)
    return counts


def test_relations_off_a_cycle_evaluated_once(evals):
    _, res = run_source(chain_source(8), BOOLEAN)
    assert res.converged
    assert evals["graph"] == evals["from0"] == 1
    assert evals["connect"] == res.iterations > 1


def test_program_without_recursion_takes_one_round(evals):
    t = "(Sum Unit (Sum Unit (Sum Unit (Sum Unit Unit))))"
    src = f"""(defrel (distinct3 (forall a) (x : a) (y : a) (z : a))
  (conj (=/= x y) (conj (=/= x z) (=/= y z))))
(defrel (distinct3-at (x : {t}) (y : {t}) (z : {t}))
  (distinct3 x y z))
"""
    lowered, res = run_source(src, BOOLEAN, "large-enough")
    assert res.converged and res.iterations == 1
    assert evals == {rel.name: 1 for rel in lowered.relations}
    assert res.tables["distinct3-at"].cells.sum() == 5 * 4 * 3


def test_components_above_one_out_of_rounds_still_solved(evals):
    # connect runs out of rounds; from0 is solved against its last round
    _, res = run_source(chain_source(6), BOOLEAN, max_iters=2)
    assert not res.converged and res.iterations == 2
    assert evals["from0"] == 1
    assert res.tables["from0"].cells.tolist() == \
        res.tables["connect"].cells[0].tolist() == \
        [False, True, True, False, False, False]


def _call_chain_source(n: int) -> str:
    """Relations r0 .. r(n-1), each calling the next, with the last calling
    into the mutually recursive pair ping/pong."""
    s2 = "(Sum Unit Unit)"
    lines = [f"(defrel (r{i} (x : {s2})) (r{i + 1} x))" for i in range(n - 1)]
    lines.append(f"(defrel (r{n - 1} (x : {s2})) (ping x))")
    lines.append(f"(defrel (ping (x : {s2})) (disj (== x (left sole)) (pong x)))")
    lines.append(f"(defrel (pong (x : {s2})) (ping x))")
    return "\n".join(lines) + "\n"


def test_long_call_chain_solved_once_per_relation(evals):
    n = 1100
    assert n > sys.getrecursionlimit()
    _, res = run_source(_call_chain_source(n), BOOLEAN)
    assert res.converged
    assert all(evals[f"r{i}"] == 1 for i in range(n))
    # the pair iterates as one component: set, propagate, confirm
    assert evals["ping"] == evals["pong"] == res.iterations == 3
    assert res.tables["r0"].cells.tolist() == [True, False]


# ---------------------------------------------------------------------------
# scalar reference evaluator vs the array engine

def _compare_with_oracle(source, spec, atol=0.0):
    lowered, res = run_source(source, spec)
    assert res.converged
    gamma = {n: t.cells for n, t in res.tables.items()}
    param_types = {r.name: [ty for _, ty in r.params] for r in lowered.relations}
    lit = lambda text: parse_weight_literal(text, spec)
    for rel in lowered.relations:
        want = oracle.relation_cells(rel, gamma, spec.name, param_types, lit)
        table = res.tables[rel.name]
        for pos, w in want.items():
            got = table.cells[pos]
            if atol:
                assert abs(float(got) - float(w)) <= atol, (rel.name, pos)
            else:
                assert got == w, (rel.name, pos, got, w)


def test_oracle_agreement_corpus():
    for name in IDEMPOTENT_CORPUS:
        _compare_with_oracle(load(name), BOOLEAN)
        _compare_with_oracle(load(name), MIN_TROPICAL)
    _compare_with_oracle(load("coins.skn"), REAL, atol=1e-6)


def test_oracle_agreement_random_sample():
    for seed in range(15):
        src = gen.random_program(seed)
        _compare_with_oracle(src, BOOLEAN)
        _compare_with_oracle(src, MIN_TROPICAL)


# ---------------------------------------------------------------------------
# fact tables: a disjunction of ground facts is one scatter

@pytest.fixture
def scatters(monkeypatch):
    """Whether each disjunction chain evaluated was tabulated by scatter."""
    seen = []
    original = skn_eval._fact_table

    def spy(disjuncts, scope, spec):
        table = original(disjuncts, scope, spec)
        seen.append(table is not None)
        return table

    monkeypatch.setattr(skn_eval, "_fact_table", spy)
    return seen


_T = "(Sum Unit (Sum Unit Unit))"
_A, _B, _C = "(left sole)", "(right (left sole))", "(right (right sole))"
# w1, w2 and w3 weigh one fact, (a, b): combined, they are neither the
# first nor the last of them.
_WEIGHTS = {
    "boolean": ("false", "true", "false", "true"),
    "real": ("0.5", "0.25", "2.0", "3.0"),
    "min-tropical": ("5", "2", "7", "inf"),
}
_SPECS = [BOOLEAN, REAL, MIN_TROPICAL]

_SCATTERED = {
    "duplicates": """
(defrel (f (x : {T}) (y : {T}))
  (disj
    (conj (== x {A}) (== y {B}) (factor {w1}))
    (conj (== {B} y) (== {A} x) (factor {w2}))
    (conj (factor {w3}) (conj (== x {A}) (== y {B})))
    (conj (== x {C}) (== y {A}))
    (conj (== x {B}) (== y {C}) (factor {w4}))))
""",
    "nested": """
(defrel (f (x : {T}) (y : {T}))
  (disj
    (disj (conj (== x {A}) (conj (factor {w1}) (== y {A})))
          (conj (conj (== {C} y) (== x {B})) (factor {w2})))
    (disj (conj (== x {A}) (== y {A}) (factor {w3}))
          (disj (conj (== y {C}) (== x {C})) (conj (== x {B}) (== {C} y) (factor {w4}))))))
""",
    "under-fresh": """
(defrel (f (x : {T}) (y : {T}))
  (disj (conj (== x {A}) (== y {B}) (factor {w1})) (conj (== x {B}) (== y {B}) (factor {w4}))))
(defrel (g (x : {T}))
  (fresh ((z : {T}))
    (conj (disj (conj (== x {A}) (== z {B}) (factor {w1}))
                (conj (== z {B}) (== {A} x) (factor {w2}))
                (conj (== x {C}) (== z {A}) (factor {w3})))
          (f z x))))
(defrel (h (x : {T}))
  (conj (factor {w4}) (fresh ((z : {T})) (disj (== z {A}) (== z {B}) (== {A} z)))))
""",
}

_FOLDED = {
    "free-variable": """
(defrel (f (x : {T}) (y : {T}))
  (disj (conj (== x {A}) (== y {B}) (factor {w1})) (conj (== x {C}) (factor {w2}))))
""",
    "variable-to-variable": """
(defrel (f (x : {T}) (y : {T}))
  (disj (conj (== x {A}) (== y {B}) (factor {w1})) (conj (== x {C}) (== y x) (factor {w2}))))
""",
    "two-factors": """
(defrel (f (x : {T}) (y : {T}))
  (disj (conj (== x {A}) (== y {B}) (factor {w1}))
        (conj (== x {A}) (== y {B}) (factor {w2}) (factor {w3}))))
""",
    "pinned-twice": """
(defrel (f (x : {T}) (y : {T}))
  (disj (conj (== x {A}) (== y {B}) (factor {w1}))
        (conj (== x {C}) (== y {A}) (== x {B}) (factor {w2}))))
""",
    "disunify": """
(defrel (f (x : {T}) (y : {T}))
  (disj (conj (== x {A}) (== y {B}) (factor {w1}))
        (conj (== x {C}) (== y {A}) (=/= x y) (factor {w2}))))
""",
}


def _fact_source(template: str, spec) -> str:
    w1, w2, w3, w4 = _WEIGHTS[spec.name]
    return template.format(T=_T, A=_A, B=_B, C=_C, w1=w1, w2=w2, w3=w3, w4=w4)


@pytest.mark.parametrize("case", sorted(_SCATTERED))
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_fact_scatter_against_oracle(spec, case, scatters):
    _compare_with_oracle(_fact_source(_SCATTERED[case], spec), spec)
    assert any(scatters)


@pytest.mark.parametrize("case", sorted(_FOLDED))
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_non_fact_disjunction_folds_against_oracle(spec, case, scatters):
    _compare_with_oracle(_fact_source(_FOLDED[case], spec), spec)
    assert scatters and not any(scatters)


def _chain(kind, goals):
    """`goals` right-nested into one chain of `kind` nodes, as parsed."""
    node = goals[-1]
    for g in reversed(goals[:-1]):
        node = kind(g, node)
    return node


def _pairs_relation(disjuncts) -> RelationDef:
    return RelationDef("r", (), (("x", S4), ("y", S4)), _chain(Disj, disjuncts))


def test_long_fact_disjunction_without_recursion():
    n = 3000
    assert n > sys.getrecursionlimit()
    values = enumerate_type(S4)
    facts = [(i % 4, i // 4 % 4, i % 10) for i in range(n)]
    rel = _pairs_relation([
        _chain(Conj, [Unify(Var("x"), values[a], S4), Unify(values[b], Var("y"), S4),
                      Factor(str(w))])
        for a, b, w in facts])
    want = np.full((4, 4), math.inf)
    for a, b, w in facts:
        want[a, b] = min(want[a, b], w)
    assert np.array_equal(eval_relation(rel, {}, MIN_TROPICAL).cells, want)


def test_long_disjunction_folds_without_recursion(scatters):
    n = 3000
    assert n > sys.getrecursionlimit()
    values = enumerate_type(S4)
    rel = _pairs_relation([
        Conj(Unify(Var("x"), values[i % 4], S4), Unify(Var("y"), Var("x"), S4))
        for i in range(n)])
    assert np.array_equal(eval_relation(rel, {}, REAL).cells, np.eye(4) * (n / 4))
    assert scatters == [False]
