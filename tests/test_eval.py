import collections
import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skn import (
    BOOLEAN, MIN_TROPICAL, REAL, Left, Pair, Prod, RelTable, Right, SOLE, Sum,
    TyVar, UNIT, Var, check_program, eval_relation, fixpoint, type_labels,
    lower_program, parse_program, render_program, render_value, type_size,
)
from skn import eval as skn_eval
from skn.eval import compile_relation, zero_table
from skn.semiring import parse_weight_literal
from skn.syntax import (
    Call, Conj, Disj, Disunify, Factor, Facts, Fresh, Program, RelationDef, Unify, as_facts,
    subgoals,
)

import gen
import oracle
import props
from helpers import (
    CORPUS, IDEMPOTENT_CORPUS, chain_source, checked, load, paths_source, reach_source,
    right_nested_sum, run_source, skewed_coins_source, thread_starts, walk_source,
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
    assert type_labels(S2) == ["(left sole)", "(right sole)"]


def test_enumerate_unit():
    assert type_labels(UNIT) == ["sole"]


def test_enumerate_prod_first_major():
    assert type_labels(Prod(S2, UNIT)) == \
        ["(pair (left sole) sole)", "(pair (right sole) sole)"]


def _balanced_sum(n: int):
    return UNIT if n == 1 else Sum(_balanced_sum(n // 2), _balanced_sum(n - n // 2))


@pytest.mark.parametrize("t, walked", [
    (_balanced_sum(2 ** 8), [64]), (_balanced_sum(2 ** 10), [64]), (_balanced_sum(2 ** 12), [64]),
    (_balanced_sum(100), [50]),  # two subtrees of 50 values: one node
    (Prod(Sum(UNIT, S2), _balanced_sum(128)), [3, 64]),
    (_balanced_sum(64), []),  # small enough to write directly, splicing nothing
])
def test_labels_walk_each_small_subtree_once(monkeypatch, t, walked):
    # a balanced sum of 2**k Units has 2**k / 64 copies of one 64-value
    # subtree: its labels are written by walking it once, then spliced
    # between each prefix and suffix, so the labels walked stay 64
    writes = []
    original = skn_eval.type_labels

    def spy(u):
        labels = original(u)
        writes.append(len(labels))
        return labels

    monkeypatch.setattr(skn_eval, "type_labels", spy)
    labels = type_labels(t)
    assert writes == walked
    assert labels == [render_value(v) for v in oracle.type_values(t)]


def test_type_labels_need_a_concrete_type():
    with pytest.raises(ValueError, match="type variable a has no values"):
        type_labels(Sum(UNIT, TyVar("a")))


def test_type_label_is_the_label_at_its_index():
    # every parameter type of the corpus, lowered both ways, and a type
    # that mixes sums and products at several depths
    types = {ty for name in CORPUS for mode in ("monomorphize", "large-enough")
             for rel in lower_program(checked(load(name)), mode, BOOLEAN).relations
             for _, ty in rel.params}
    types.add(Prod(Sum(UNIT, Prod(S2, S4)), Sum(Prod(S4, UNIT), Prod(S2, Sum(S2, UNIT)))))
    assert len(types) >= 9
    for t in types:
        labels = type_labels(t)
        assert [skn_eval.type_label(t, i) for i in range(len(labels))] == labels


def test_plan_refuses_a_combined_array_numpy_cannot_shape():
    # two gathered terms (slots 0 and 1) of 2**35 cells on different axes:
    # combining them would take 2**70 cells, refused before any array exists
    big = S2
    for _ in range(34):
        big = Prod(S2, big)
    plan = skn_eval.Plan("r", (), BOOLEAN, ())
    with pytest.raises(MemoryError):
        plan.fold([(("y",), 0), (("z",), 1)], BOOLEAN.mul, {"y": big, "z": big})
    assert plan.steps == []


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
    values = oracle.type_values(t)
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
    g = Fresh((("y", S2),), Disunify(Var("x"), Var("y"), S2))
    assert _goal_weight(g, {"x": Left(SOLE)}, BOOLEAN) == True


def test_eval_relation_examples():
    p = check_program(parse_program(load("coin-flip.skn")))
    table = eval_relation(compile_relation(p.relations[0], {}, BOOLEAN), {}, BOOLEAN)
    assert table.cells.tolist() == [True, True]

    p = check_program(parse_program(load("coins.skn")))
    unfair = p.relation("unfair-coin-flip")
    table = eval_relation(compile_relation(unfair, {}, REAL), {}, REAL)
    assert table.cells.tolist() == [0.7, 0.3]

    p = check_program(parse_program(load("connect.skn")))
    graph = p.relation("graph")
    tables = {r.name: zero_table(r, MIN_TROPICAL) for r in p.relations}
    table = eval_relation(compile_relation(graph, tables, MIN_TROPICAL), tables, MIN_TROPICAL)
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


def test_non_convergence_reported(monkeypatch):
    # weight keeps growing: w <- 2w + 1 has no finite fixpoint.  A = [2] has
    # spectral radius above 1, so the solve hands the group to iteration,
    # whose 50 rounds from zero reach 2^50 - 1, which a float holds exactly.
    solves = []
    solve = skn_eval._solve_affine
    monkeypatch.setattr(skn_eval, "_solve_affine",
                        lambda *a: solves.append(solve(*a)) or solves[-1])
    src = "(defrel (grow (x : Unit)) (disj (factor 1) (conj (factor 2.0) (grow x))))"
    _, res = run_source(src, REAL, epsilon=1e-9, max_iters=50)
    assert solves == [None]
    assert not res.converged and not res.stopped_on_nan and res.iterations == 50
    assert res.tables["grow"].cells[0] == 2.0 ** 50 - 1


def test_overflow_to_inf_is_not_convergence():
    # w <- 2w + 1 reaches inf after about 1024 rounds, and inf = 2 inf + 1;
    # a round that changes by inf - inf = nan is not within any tolerance
    src = "(defrel (grow (x : Unit)) (disj (factor 1) (conj (factor 2.0) (grow x))))"
    _, res = run_source(src, REAL, max_iters=1100)
    assert not res.converged and res.iterations == 1100


def test_round_that_changes_nothing_converges_at_once():
    # r = 0 + r·r is not affine, so it iterates; its first round from zero
    # changes no cell (Δ = 0), which needs no rate estimate
    src = "(defrel (r (x : Unit)) (disj (factor 0) (conj (r x) (r x))))"
    _, res = run_source(src, REAL)
    assert res.converged and res.iterations == 1
    assert res.tables["r"].cells[0] == 0


def test_solved_group_runs_one_round_of_the_loop():
    # that round starts from the solution and is the round that verified it
    lowered = lower_program(checked(load("coins.skn")), "monomorphize", REAL)
    group = {rel.name for rel in _recursive_group(load("coins.skn"))}
    rounds = []
    fixpoint(lowered, REAL, on_round=lambda it, old, new: rounds.append(
        (it, {n: old[n].cells.copy() for n in new}, new)))
    [(it, old, new)] = [r for r in rounds if r[2].keys() == group]
    assert it == 1
    for name in group:
        assert old[name].any() and np.abs(old[name] - new[name].cells).max() <= 1e-9


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



def _handed_to_iteration(monkeypatch, src: str, max_iters: int = 10000) -> list:
    """Run `src` under real, watching `_solve_affine` and numpy's `eigvals`
    and `solve`; check that the solve gave the group back (None) and that
    the result is iteration's alone (`MAX_SOLVE_CELLS = 0`).  Returns the
    calls: the names of the linear algebra calls, then the solve's result."""
    with monkeypatch.context() as m:
        m.setattr(skn_eval, "MAX_SOLVE_CELLS", 0)
        _, alone = run_source(src, REAL, max_iters=max_iters)
    calls, solve = [], skn_eval._solve_affine
    monkeypatch.setattr(skn_eval, "_solve_affine", lambda *a: calls.append(solve(*a)) or calls[-1])
    for name in ("eigvals", "solve"):
        monkeypatch.setattr(np.linalg, name, lambda *a, f=getattr(np.linalg, name), name=name:
                            calls.append(name) or f(*a))
    _, res = run_source(src, REAL, max_iters=max_iters)
    assert calls[-1] is None
    assert (res.converged, res.iterations, res.stopped_on_nan) == \
        (alone.converged, alone.iterations, alone.stopped_on_nan)
    assert all(np.array_equal(t.cells, alone.tables[n].cells) for n, t in res.tables.items())
    return calls


def test_solve_with_a_non_finite_matrix_iterates(monkeypatch):
    # A = [1e300 * 1e300] = [inf]: the solve stops before any linear algebra,
    # and iteration reaches inf, which never converges (inf - inf = nan)
    src = ("(defrel (r (x : Unit))"
           " (disj (factor 1) (conj (factor 1e300) (conj (factor 1e300) (r x)))))")
    assert _handed_to_iteration(monkeypatch, src, max_iters=50) == [None]


def test_solve_raising_lin_alg_error_iterates(monkeypatch):
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    src = "(defrel (alt (x : Unit)) (disj (factor 1) (conj (factor -0.5) (alt x))))"
    assert _handed_to_iteration(monkeypatch, src) == ["eigvals", "solve", None]


def test_solve_failing_its_verifying_round_iterates(monkeypatch):
    # I - A = [1e-8] is ill-conditioned: the solution, about 1e8, is a
    # float whose spacing (1.5e-8) passes the tolerance, so the round from
    # it moves by more than 1e-9; iteration at rate 1 - 1e-8 does not converge
    src = "(defrel (r (x : Unit)) (disj (factor 1) (conj (factor 0.99999999) (r x))))"
    assert _handed_to_iteration(monkeypatch, src, max_iters=50) == ["eigvals", "solve", None]

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
                again = {r.name: eval_relation(compile_relation(r, res.tables, spec),
                                               res.tables, spec)
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


def test_each_relation_compiled_once_per_fixpoint(monkeypatch, evals):
    compiled = collections.Counter()
    original = skn_eval.compile_relation

    def counting(rel, tables, spec):
        compiled[rel.name] += 1
        return original(rel, tables, spec)

    monkeypatch.setattr(skn_eval, "compile_relation", counting)
    lowered, res = run_source(load("coins.skn"), REAL)
    assert res.converged and res.iterations == 1
    assert compiled == {"unfair-coin-flip": 1, "fair-coin-flip": 1}
    # the affine solve runs one plan four times: the b probe, a probe per
    # cell of the 2-cell table, and the round that verifies the solution
    assert evals == {"unfair-coin-flip": 1, "fair-coin-flip": 4}
    fixpoint(lowered, REAL)
    assert compiled == {"unfair-coin-flip": 2, "fair-coin-flip": 2}


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

def _compare_with_oracle(source, spec, atol=0.0, mode="monomorphize"):
    lowered, res = run_source(source, spec, mode)
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
    """The variables of each fact table evaluated, as one scatter each."""
    seen = []
    original = skn_eval._fact_table

    def spy(g, scope, spec):
        table = original(g, scope, spec)
        seen.append(table[0])
        return table

    monkeypatch.setattr(skn_eval, "_fact_table", spy)
    return seen


def _goal_kinds(source: str) -> set[type]:
    """The classes of the goal nodes of `source`'s checked relations."""
    return {type(g) for rel in checked(source).relations for g in subgoals(rel.body)}


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
    source = _fact_source(_SCATTERED[case], spec)
    _compare_with_oracle(source, spec)
    assert Facts in _goal_kinds(source) and scatters


@pytest.mark.parametrize("case", sorted(_FOLDED))
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_non_fact_disjunction_folds_against_oracle(spec, case, scatters):
    source = _fact_source(_FOLDED[case], spec)
    _compare_with_oracle(source, spec)
    kinds = _goal_kinds(source)
    assert Disj in kinds and Facts not in kinds and not scatters


def test_duplicate_facts_add_last_to_first(scatters):
    # 0.1 + (0.2 + 0.3) is 0.6 and (0.1 + 0.2) + 0.3 is 0.6000000000000001:
    # the scatter adds duplicate facts as the right-nested chain does
    source = """
(defrel (f (x : (Sum Unit Unit)))
  (disj (conj (== x (left sole)) (factor 0.1))
        (conj (factor 0.2) (== x (left sole)))
        (conj (== (left sole) x) (factor 0.3))))
"""
    _compare_with_oracle(source, REAL)
    _, res = run_source(source, REAL)
    assert res.tables["f"].cells[0] == 0.1 + (0.2 + 0.3) != (0.1 + 0.2) + 0.3
    assert set(scatters) == {("x",)}


# facts at a type variable's sum: instances and the large-enough one
# scatter them at their own types, with the annotations' `a` substituted
_POLY_FACTS = """
(defrel (pick (forall a) (x : (Sum Unit a)) (y : {T}))
  (disj
    (conj (== x (left sole)) (== y {B}) (factor {w1}))
    (conj (== (left {{(Sum Unit a)}} sole) x) (== y {A}) (factor {w2}))
    (conj (== y {B}) (== x (left {{(Sum Unit a)}} sole)) (factor {w3}))))
(defrel (use (x : (Sum Unit {T})) (y : {T})) (pick x y))
(defrel (use2 (x : (Sum Unit Unit)) (y : {T}))
  (fresh ((z : {T})) (conj (pick x z) (pick (left {{(Sum Unit {T})}} sole) y))))
"""


@pytest.mark.parametrize("spec, mode", [
    (spec, mode) for spec in _SPECS for mode in ("monomorphize", "large-enough")
    if spec.idempotent_add or mode == "monomorphize"],  # large-enough needs idempotent addition
    ids=lambda x: getattr(x, "name", x))
def test_polymorphic_facts_against_oracle(spec, mode, scatters):
    source = _fact_source(_POLY_FACTS, spec)
    _compare_with_oracle(source, spec, mode=mode)
    lowered = lower_program(checked(source), mode, spec)
    instances = [rel for rel in lowered.relations if rel.name.startswith("pick$")]
    assert instances and all(isinstance(rel.body, Facts) for rel in instances)
    text = render_program(lowered)
    assert "{(Sum Unit a)}" not in text and "{(Sum Unit Unit)}" in text
    assert render_program(parse_program(text)) == text
    assert len(scatters) == len(instances)


def test_chains_fold_in_right_nested_order():
    # (disj a b c) is a + (b + c), and (conj a b c) is a * (b * c); over
    # floats, folding first to last gives other weights
    src = """(defrel (sums (x : Unit)) (disj (factor 1e16) (factor 1) (factor 1)))
(defrel (products (x : Unit)) (conj (factor 1e-200) (factor 1e-200) (factor 1e200)))
"""
    _compare_with_oracle(src, REAL)
    _, res = run_source(src, REAL)
    assert res.tables["sums"].cells.tolist() == [1e16 + 2]
    assert res.tables["products"].cells.tolist() == [1e-200]


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
    values = oracle.type_values(S4)
    facts = [(i % 4, i // 4 % 4, i % 10) for i in range(n)]
    rel = _pairs_relation([
        _chain(Conj, [Unify(Var("x"), values[a]), Unify(values[b], Var("y")), Factor(str(w))])
        for a, b, w in facts])
    rel = dataclasses.replace(rel, body=as_facts(rel.body))
    assert isinstance(rel.body, Facts) and len(rel.body.rows) == n
    want = np.full((4, 4), math.inf)
    for a, b, w in facts:
        want[a, b] = min(want[a, b], w)
    got = eval_relation(compile_relation(rel, {}, MIN_TROPICAL), {}, MIN_TROPICAL).cells
    assert np.array_equal(got, want)


def test_long_disjunction_folds_without_recursion(scatters):
    n = 3000
    assert n > sys.getrecursionlimit()
    values = oracle.type_values(S4)
    rel = _pairs_relation([
        Conj(Unify(Var("x"), values[i % 4], S4), Unify(Var("y"), Var("x"), S4))
        for i in range(n)])
    assert as_facts(rel.body) is rel.body  # `(== y x)` pins no ground value
    got = eval_relation(compile_relation(rel, {}, REAL), {}, REAL).cells
    assert np.array_equal(got, np.eye(4) * (n / 4))
    assert scatters == []


def test_fact_table_indexes_and_reads_each_distinct_form_once(monkeypatch):
    # paths' edge pins 512 ground values, over 128 distinct nodes, and
    # weighs 256 facts with 9 distinct literals
    edge = checked(paths_source(0, 128)).relation("edge")
    calls = collections.Counter()
    for name in ("_index_factor", "parse_weight_literal"):
        original = getattr(skn_eval, name)
        monkeypatch.setattr(skn_eval, name, lambda *a, name=name, original=original:
                            calls.update([name]) or original(*a))
    compile_relation(edge, {}, MIN_TROPICAL)
    types = dict(edge.params)
    pins = [(x, v, u) for row, _ in edge.body.rows for x, (v, u) in row.items()]
    literals = [lit for _, lit in edge.body.rows if lit is not None]
    nodes = {(id(v), types[x]) for x, v, _ in pins}
    assert (len(pins), len(nodes), len(literals), len(set(literals))) == (512, 128, 256, 9)
    assert all(u.v1 == Var(x) and u.v2 is v and u.ty is None for x, v, u in pins)
    assert calls == {"_index_factor": len(nodes), "parse_weight_literal": len(set(literals))}


def test_call_graph_walks_a_fact_table_as_one_node(monkeypatch):
    # edge's 256 facts are one leaf, which no walk for calls enters
    program = checked(paths_source(0))
    edge = program.relation("edge")
    assert [type(g) for g in subgoals(edge.body)] == [Facts]
    walked = {}
    original = skn_eval.subgoals
    monkeypatch.setattr(skn_eval, "subgoals",
                        lambda g: walked.setdefault(id(g), list(original(g))))
    skn_eval._call_graph_sccs(program)
    assert walked[id(edge.body)] == [edge.body]


def _nested_relation(depth: int) -> RelationDef:
    """A relation over x : S2 whose body nests `depth` goals, alternating
    conj, disj and fresh from the outside in, built inside out as typed
    nodes.  Each conj below a fresh pins that fresh's binder to x, so
    summing the binder out leaves the rest; each disj adds x == (left sole);
    the innermost goal is x == (right sole), under a fresh whose binder it
    does not use when `depth` is a multiple of 3."""
    x = Var("x")
    g = Unify(x, Right(SOLE), S2)
    for level in reversed(range(depth)):
        if level % 3 == 0:
            g = Conj(Unify(Var(f"z{level - 1}"), x, S2) if level else Factor("1"), g)
        elif level % 3 == 1:
            g = Disj(Unify(x, Left(SOLE), S2), g)
        else:
            g = Fresh(((f"z{level}", S2),), g)
    return RelationDef("nested", (), (("x", S2),), g)


def test_deep_alternating_nesting_without_recursion():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    rel = _nested_relation(depth)
    # 1000 disjs add one at x = (left sole); the innermost fresh sums its
    # unused binder's two values at x = (right sole); factor 1 adds 1
    # under min-tropical
    want = {"real": [1000.0, 2.0], "min-tropical": [1.0, 1.0], "boolean": [True, True]}
    for spec in _SPECS:
        got = eval_relation(compile_relation(rel, {}, spec), {}, spec).cells
        assert got.tolist() == want[spec.name]
    res = fixpoint(Program((rel,)), REAL)
    assert res.converged and res.tables["nested"].cells.tolist() == want["real"]


@pytest.mark.parametrize("depth", [4, 6])
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_alternating_nesting_against_oracle(spec, depth):
    rel = _nested_relation(depth)
    want = oracle.relation_cells(rel, {}, spec.name, {},
                                 lambda text: parse_weight_literal(text, spec))
    got = eval_relation(compile_relation(rel, {}, spec), {}, spec).cells
    assert [got[pos] for pos in want] == list(want.values())


def test_deep_pair_value_solves_without_recursion():
    # x is (pair y (pair sole ... (pair sole (right sole)))), `depth` pairs
    # deep: x's type has 4 values, and x == v holds at x = 2y + 1
    depth = 2000
    assert depth > sys.getrecursionlimit()
    t, v = S2, Right(SOLE)
    for _ in range(depth - 1):
        t, v = Prod(UNIT, t), Pair(SOLE, v)
    t, v = Prod(S2, t), Pair(Var("y"), v)
    rel = RelationDef("deep", (), (("x", t), ("y", S2)), Unify(Var("x"), v))
    for spec in _SPECS:
        lowered = lower_program(check_program(Program((rel,))), "monomorphize", spec)
        res = fixpoint(lowered, spec)
        assert res.converged
        got = res.tables["deep"].cells
        assert np.array_equal(got, np.where([[0, 0], [1, 0], [0, 0], [0, 1]],
                                            spec.one, spec.zero))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10 * depth)  # the oracle recurses on the value
        try:
            want = oracle.relation_cells(lowered.relation("deep"), {}, spec.name, {}, None)
        finally:
            sys.setrecursionlimit(limit)
        assert [got[pos] for pos in want] == list(want.values())


# ---------------------------------------------------------------------------
# contraction: a binder summed out of two or more terms, block by block

def _sized(n: int):
    """A right-nested sum of n Units: a type of n values."""
    t = UNIT
    for _ in range(n - 1):
        t = Sum(UNIT, t)
    return t


# Each group is r(params) = the sum over `binders` of the product of one
# call per term, the called table's axes in the term's order.  Scope order
# is the params, then the binders; the sizes are the variables' values.
_GROUPS = {
    "two terms, one block": ({"x": 8, "y": 8, "z": 8}, ["z"], ["xz", "zy"]),
    # 2304 result cells: blocks of 28 values of z, the last of 20
    "two terms, blocks": ({"x": 48, "y": 48, "z": 48}, ["z"], ["xz", "zy"]),
    # 90000 result cells, above one block: one value of z a block
    "two terms, a block a value": ({"x": 300, "y": 300, "z": 3}, ["z"], ["xz", "zy"]),
    "three terms, one block": ({"x": 8, "y": 8, "z": 8}, ["z"], ["xz", "zy", "zx"]),
    "three terms, blocks": ({"x": 40, "y": 40, "z": 60}, ["z"], ["xz", "zy", "yz"]),
    # z goes first (a tie), from the middle of (x, z, w); then w
    "two binders, blocks": ({"x": 36, "y": 36, "z": 52, "w": 40}, ["z", "w"],
                            ["xz", "zw", "wy"]),
}


def _random_cells(rng, spec, shape):
    if spec is BOOLEAN:
        return rng.random(shape) < 0.05
    cells = rng.random(shape)
    if spec is MIN_TROPICAL:
        cells[rng.random(shape) < 0.2] = math.inf
    return cells


def _group(sizes, binders, terms, spec, rng):
    """The relation of a group, and tables of random cells for its calls."""
    params = [d for d in sizes if d not in binders]
    rel = RelationDef("r", (), tuple((d, _sized(sizes[d])) for d in params),
                      Fresh(tuple((b, _sized(sizes[b])) for b in binders),
                            _chain(Conj, [Call(f"t{i}", tuple(Var(d) for d in term))
                                          for i, term in enumerate(terms)])))
    tables = {f"t{i}": RelTable(f"t{i}", tuple((f"p{j}", _sized(sizes[d]))
                                               for j, d in enumerate(term)),
                                _random_cells(rng, spec, [sizes[d] for d in term]))
              for i, term in enumerate(terms)}
    return rel, tables


def _broadcast(sizes, binders, terms, tables, spec):
    """The group's table as the product of all its terms over every
    variable, first term to last, then summed over the binders."""
    order = list(sizes)
    acc = None
    for i, term in enumerate(terms):
        cells = tables[f"t{i}"].cells.transpose(sorted(range(len(term)),
                                                       key=lambda j: order.index(term[j])))
        cells = cells.reshape([sizes[d] if d in term else 1 for d in order])
        acc = cells if acc is None else spec.mul(acc, cells)
    return spec.add.reduce(acc, axis=tuple(order.index(b) for b in binders))


def _same(got, want, spec):
    if spec is REAL:
        return np.allclose(got, want, rtol=1e-12, atol=0, equal_nan=True)
    return np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", _GROUPS)
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_contraction_matches_broadcast_product(spec, name, seed):
    sizes, binders, terms = _GROUPS[name]
    rel, tables = _group(sizes, binders, terms, spec, np.random.default_rng(seed))
    got = eval_relation(compile_relation(rel, tables, spec), tables, spec).cells
    want = _broadcast(sizes, binders, terms, tables, spec)
    assert got.shape == want.shape and got.dtype == spec.dtype
    assert _same(got, want, spec)


# boolean and real with their `matmul` kernels taken out: the generic loop
BOOLEAN_LOOP, REAL_LOOP = (dataclasses.replace(spec, matmul=None) for spec in (BOOLEAN, REAL))


def test_overflowing_real_contraction_reaches_nan():
    # column z = 5 of t0 is inf, and row 5 of t1 is 0 at y < 3: each such
    # cell's sum has inf * 0 = nan, and every other cell's has inf.  With
    # the zeros in t0 and the infs in t1, 0 * inf is nan at y < 3 again: in
    # real's kernel and in the generic loop, which skips no zero terms of
    # its left operand under real
    sizes, binders, terms = _GROUPS["two terms, blocks"]
    for zero_left in (False, True):
        rel, tables = _group(sizes, binders, terms, REAL, np.random.default_rng(0))
        tables["t0"].cells[:, 5] = 0.0 if zero_left else math.inf
        tables["t1"].cells[5, :3] = math.inf if zero_left else 0.0
        for spec in (REAL, REAL_LOOP):
            with np.errstate(over="ignore", invalid="ignore"):
                got = eval_relation(compile_relation(rel, tables, spec), tables, spec).cells
                want = _broadcast(sizes, binders, terms, tables, spec)
            assert np.isnan(got[:, :3]).all() and (zero_left or (got[:, 3:] == math.inf).all())
            assert _same(got, want, REAL)


@pytest.mark.parametrize("spec", [BOOLEAN, REAL], ids=lambda spec: spec.name)
def test_kernels_match_the_generic_loop(spec):
    """Each spec's `matmul` kernel against the generic loop of its `mul`
    and `add.reduce`: the same convergence and nan stop, and the same
    tables and rounds, bit for bit under boolean.  Under real, BLAS sums
    each cell in another order; with the non-negative weights here a cell's
    relative error is at most about binder size * 2**-53 (below 1e-13 at 128
    values), so the tables must agree to 1e-12, nan and inf in the same
    cells.  chain-128's connect counts bracketings of a path under real,
    Catalan numbers up to about 1e72, so it converges only when a round
    repeats the last one's bits, and the round that first does so depends
    on the order of the sums (108 rounds in the loop, 107 with OpenBLAS on
    a 2-core Xeon):
    there the rounds may differ by one, as chain-64's may in
    `test_blocked_fixpoints_match_one_block`."""
    loop, chain = dataclasses.replace(spec, matmul=None), chain_source(128)
    weight = "1" if spec is BOOLEAN else None
    sources = [load(name) for name in IDEMPOTENT_CORPUS] + \
        [gen.random_program(seed) for seed in range(10)] + [chain] + \
        [paths_source(seed, 128, weight) for seed in range(3)]
    for src in sources:
        lowered = lower_program(checked(src), "monomorphize", spec)
        kernel, looped = fixpoint(lowered, spec, max_iters=300), fixpoint(lowered, loop, max_iters=300)
        assert (kernel.converged, kernel.stopped_on_nan) == (looped.converged, looped.stopped_on_nan)
        assert kernel.iterations == looped.iterations or \
            spec is REAL and src is chain and abs(kernel.iterations - looped.iterations) <= 1
        for name, table in looped.tables.items():
            assert _same(kernel.tables[name].cells, table.cells, spec), name


def test_boolean_join_starts_no_thread(monkeypatch):
    """chain-128's boolean join, 2**21 product cells, is one call of
    boolean's kernel, so no thread is started even with two usable CPUs."""
    monkeypatch.setattr(skn_eval, "USABLE_CPUS", 2)
    starts = thread_starts(monkeypatch)
    res = fixpoint(checked(chain_source(128)), BOOLEAN)
    assert res.converged and res.tables["from0"].cells[1:].all() and not starts


def _counting(spec):
    """`spec` whose `mul` also appends the size of each result to a list."""
    sizes = []

    def mul(*args, **kwargs):
        out = spec.mul(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    return dataclasses.replace(spec, mul=mul), sizes


def test_zero_terms_are_not_multiplied(monkeypatch):
    """dist's join on a paths-shaped program multiplies only the binder
    values at which a block of its left operand is not zero: none in round
    1, where dist is all zero, and under 1/8 of the dense 128**3 cells a
    round over rounds 1-3 (3.7% here, with two rows a block).  A round whose
    left operand is that sparse stays in one thread; the first dense round,
    the fifth, is split."""
    monkeypatch.setattr(skn_eval, "USABLE_CPUS", 2)
    starts = thread_starts(monkeypatch)
    spec, sizes = _counting(MIN_TROPICAL)
    rounds = []

    def on_round(it, old, new):
        if "dist" in new:
            rounds.append((sum(sizes), len(starts)))
        sizes.clear()

    fixpoint(checked(paths_source(0, 128)), spec, on_round=on_round)
    cells, threads = zip(*rounds)
    assert cells[0] == 0 and sum(cells[:3]) < 3 * 128 ** 3 / 8, cells
    assert threads[:4] == (0, 0, 0, 0) and threads[4] == 1, threads


@pytest.mark.parametrize("spec", [MIN_TROPICAL, BOOLEAN_LOOP], ids=["min-tropical", "boolean-loop"])
def test_join_of_a_zero_operand_builds_no_product(spec):
    # every block of an all-zero left operand keeps no binder value
    sizes, binders, terms = _GROUPS["two terms, blocks"]
    rel, tables = _group(sizes, binders, terms, spec, np.random.default_rng(0))
    tables["t0"].cells[...] = spec.zero
    counting, built = _counting(spec)
    got = eval_relation(compile_relation(rel, tables, counting), tables, counting).cells
    assert built == [] and (got == spec.zero).all()


def test_call_of_distinct_variables_is_a_view():
    """A call whose arguments are distinct variables reads its table through
    a transposed view, with no gather; a relation that is just such a call
    still gets cells of its own."""
    t, vals = right_nested_sum(4)
    facts = "\n".join(f"    (conj (== x {a}) (== y {b}))" for a, b in zip(vals, vals[2:] + vals[:1]))
    program = checked(f"(defrel (s (x : {t}) (y : {t}))\n  (disj\n{facts}))\n"
                      f"(defrel (r (x : {t}) (y : {t})) (s y x))\n"
                      f"(defrel (q (x : {t}) (y : {t})) (s x y))\n")
    tables = fixpoint(program, BOOLEAN).tables
    s = tables["s"].cells
    assert s.any() and np.array_equal(tables["r"].cells, s.T) and np.array_equal(tables["q"].cells, s)
    assert not np.shares_memory(tables["r"].cells, s) and not np.shares_memory(tables["q"].cells, s)
    for rel in program.relations[1:]:
        steps = compile_relation(rel, tables, BOOLEAN).steps
        assert all(getattr(fn, "func", None) is not skn_eval._take for fn, _ in steps)


@pytest.mark.parametrize("body, want", [
    # z = x and z = y over 48 values: two constant masks, 48 ** 3 cells
    (lambda t: Fresh((("z", t),), Conj(Unify(Var("z"), Var("x"), t),
                                        Unify(Var("z"), Var("y"), t))), np.eye(48, dtype=bool)),
    # x = y or x =/= y: one combine of two masks
    (lambda t: Disj(Unify(Var("x"), Var("y"), t), Disunify(Var("x"), Var("y"), t)),
     np.ones((48, 48), dtype=bool)),
    # z = x at one z for each x: a sum of one term, laid out over (x, y)
    (lambda t: Fresh((("z", t),), Unify(Var("z"), Var("x"), t)), np.ones((48, 48), dtype=bool)),
], ids=["contraction", "combine", "one-term sum"])
def test_constant_contraction_runs_at_compile_time(body, want):
    t = _sized(48)
    rel = RelationDef("r", (), (("x", t), ("y", t)), body(t))
    for spec in _SPECS:
        plan = compile_relation(rel, {}, spec)
        assert plan.steps == []
        got = eval_relation(plan, {}, spec).cells
        assert np.array_equal(got, np.where(want, spec.one, spec.zero))


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_every_plan_step_reads_a_table(monkeypatch, spec):
    """An operation on constants alone runs as the plan is built, so every
    step a plan keeps has a slot or a table's name among its operands: over
    the corpus and 20 random programs, lowered each way `spec` allows."""
    plans = []
    original = skn_eval.compile_relation

    def keeping(*args):
        plans.append(original(*args))
        return plans[-1]

    monkeypatch.setattr(skn_eval, "compile_relation", keeping)
    sources = [load(name) for name in (IDEMPOTENT_CORPUS if spec is BOOLEAN else CORPUS)]
    sources += [gen.random_program(seed) for seed in range(20)]
    for src in sources:
        program = check_program(parse_program(src))
        for mode in ("monomorphize", "large-enough") if spec.idempotent_add else ("monomorphize",):
            fixpoint(lower_program(program, mode, spec), spec, max_iters=300)
    steps = [operands for plan in plans for _, operands in plan.steps]
    assert len(plans) > 50 and len(steps) > 80
    assert all(any(type(a) in (int, str) for a in operands) for operands in steps)


def test_a_run_frees_each_slot_once_read():
    # r is the conj of k calls of t: a run gathers k table-sized arrays and
    # folds them pairwise, so with each slot freed once read at most k + 1
    # are live at once; kept slots would make it 2k - 1
    k, n = 6, 256
    t = _sized(n)
    tables = {"t": RelTable("t", (("a", t), ("b", t)),
                            np.random.default_rng(0).random((n, n)))}
    rel = RelationDef("r", (), (("x", t), ("y", t)),
                      _chain(Conj, [Call("t", (Var("x"), Var("y")))] * k))
    plan = compile_relation(rel, tables, REAL)
    tracemalloc.start()
    try:
        cells = eval_relation(plan, tables, REAL).cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(cells, tables["t"].cells ** k, rtol=1e-12, atol=0)
    assert peak < (k + 2) * cells.nbytes, peak / cells.nbytes


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_blocked_fixpoints_match_one_block(monkeypatch, spec):
    """Every contraction as a matrix product, in blocks of one output row
    where the spec has no `matmul` kernel, against every one as a single
    product and sum: the same tables and rounds under boolean and
    min-tropical.  Under real the sums run in another order, so the tables
    agree to rounding, and a round may differ in its last bits and end
    another round later (chain-64's connect).  With the split's gate at zero
    and two usable CPUs, every contraction under min-tropical is computed in
    two halves of its output rows on two threads, and gives the blocked
    run's bits; boolean and real run their kernels in one call, so they
    give them too."""
    sources = [load(name) for name in IDEMPOTENT_CORPUS] + \
        [gen.random_program(seed) for seed in range(10)] + [chain_source(64)]
    monkeypatch.setattr(skn_eval, "SPLIT_CELLS", 0)
    starts = thread_starts(monkeypatch)
    for src in sources:
        program = check_program(parse_program(src))
        lowered = lower_program(program, "monomorphize", spec)
        results = []
        for cells, cpus in ((1, 1), (1, 2), (2 ** 62, 2)):
            monkeypatch.setattr(skn_eval, "BLOCK_CELLS", cells)
            monkeypatch.setattr(skn_eval, "USABLE_CPUS", cpus)
            results.append(fixpoint(lowered, spec, max_iters=300))
        blocked, split, whole = results
        assert (blocked.converged, blocked.stopped_on_nan) == (whole.converged, whole.stopped_on_nan)
        assert blocked.iterations == whole.iterations or spec is REAL
        for name, table in whole.tables.items():
            assert _same(blocked.tables[name].cells, table.cells, spec), name
        assert (split.converged, split.stopped_on_nan, split.iterations) == \
            (blocked.converged, blocked.stopped_on_nan, blocked.iterations)
        for name, table in blocked.tables.items():
            assert np.array_equal(split.tables[name].cells, table.cells,
                                  equal_nan=spec is REAL), name
    assert bool(starts) == (spec.matmul is None)


def test_cyclic_connect_under_real_stops_on_nan():
    # chain-64 with an edge back from its next-to-last node to its first:
    # connect counts derivations, which the cycle makes infinite, so a
    # round reaches inf, and then inf * 0 = nan at the last node, which
    # leads nowhere, in a contraction of 64 ** 3 cells
    _, vals = right_nested_sum(64)
    back = f"  (disj\n    (conj (== x {vals[-2]}) (== y {vals[0]}))\n"
    res = fixpoint(checked(chain_source(64).replace("  (disj\n", back, 1)), REAL,
                   max_iters=1000)
    assert res.stopped_on_nan and not res.converged
    assert np.isnan(res.tables["connect"].cells).any()


def _contractions(monkeypatch, src, spec, cpus):
    """The contraction steps of `src`'s plans under `spec` with `cpus`
    usable CPUs."""
    monkeypatch.setattr(skn_eval, "USABLE_CPUS", cpus)
    program = lower_program(checked(src), "monomorphize", spec)
    tables = {rel.name: zero_table(rel, spec) for rel in program.relations}
    return [fn for rel in program.relations for fn, _ in compile_relation(rel, tables, spec).steps
            if getattr(fn, "func", None) is skn_eval._contract]


# Each contraction's (split, rows): whether it may split across two
# threads, and its block's output rows before a split halves them at run
# time (`test_block_rows_and_gathered_values`).
@pytest.mark.parametrize("src, spec, cpus, want", [
    # 128**3 cells and a thread for half the rows, with four rows a block
    ("chain-128", MIN_TROPICAL, 2, [(True, 4)]),
    ("chain-128", BOOLEAN, 2, [(False, 4)]),  # boolean's kernel is one call
    ("chain-128", MIN_TROPICAL, 1, [(False, 4)]),
    ("chain-128", REAL, 2, [(False, 4)]),  # and so is real's
    ("chain-64", MIN_TROPICAL, 2, [(False, 16)]),  # 2**18 cells, below SPLIT_CELLS
    ("unit-binder", BOOLEAN, 2, [(False, 64)]),  # 2**20 cells, in boolean's kernel
    ("unit-binder", MIN_TROPICAL, 2, [(True, 64)]),  # a one-value binder, 1024 rows to halve
    ("one-row", MIN_TROPICAL, 2, [(False, 1)]),  # 2**20 cells, but one row has no halves
], ids=lambda v: getattr(v, "name", v))
def test_split_gate(monkeypatch, src, spec, cpus, want):
    t32 = right_nested_sum(32)[0]
    t1024 = f"(Prod {t32} {t32})"
    src = {"chain-128": chain_source(128), "chain-64": chain_source(64),
           "unit-binder": f"(defrel (e (x : {t1024}) (z : Unit)) (== z sole))\n"
                          f"(defrel (r (x : {t1024}) (y : {t1024}))\n"
                          f"  (fresh ((z : Unit)) (conj (e x z) (e y z))))\n",
           "one-row": f"(defrel (e (z : {t1024})) (== z z))\n"
                      f"(defrel (f (z : {t1024}) (y : {t1024})) (== z y))\n"
                      f"(defrel (r (y : {t1024})) (fresh ((z : {t1024})) (conj (e z) (f z y))))\n"}[src]
    got = [fn.keywords["how"][-1:-3:-1] for fn in _contractions(monkeypatch, src, spec, cpus)]
    assert got == want


@pytest.mark.parametrize("cpus, kept, rows, values", [
    (2, 128, 2, 128),  # a dense split: blocks of max(1, 4 // 2) rows
    (1, 128, 4, 128),  # one CPU: no split
    (2, 1, 4, 1),  # 2**14 cells left to multiply, below SPLIT_CELLS: no split
    (1, 64, 4, 64),  # half of the binder's values kept: those are gathered
    (1, 65, 4, 128),  # more than half: none is gathered, and all are multiplied
])
def test_block_rows_and_gathered_values(monkeypatch, cpus, kept, rows, values):
    """chain-128's join, whose blocks have four output rows, when the first
    `kept` values of the binder z are not zero in connect(x, z): a run that
    splits halves each block to max(1, 4 // 2) rows, and one that does not
    keeps four; a block gathers its kept values of z when they are at most
    half of z's 128, and otherwise multiplies all 128.  Each block's product
    has rows * values * 128 cells, and the join is the min-plus product
    (its operands are laid out over (x, z) and (y, z))."""
    spec, sizes = _counting(MIN_TROPICAL)
    [contract] = _contractions(monkeypatch, chain_source(128), spec, cpus)
    rng = np.random.default_rng(0)
    a1, a2 = rng.random((128, 128)), rng.random((128, 128))
    a1[:, kept:] = math.inf
    sizes.clear()
    got = contract(a1, a2)
    assert sorted(sizes) == [rows * values * 128] * (128 // rows)
    assert np.array_equal(got, np.minimum.reduce(a1[:, None] + a2[None], axis=2))


@pytest.mark.parametrize("n", [128, 300], ids=["four-rows-a-block", "row-above-block"])
def test_split_contraction_memory(monkeypatch, n):
    """chain-n's join, split on two threads, builds at most
    max(BLOCK_CELLS, 2 * row) product cells at once, a row being the n ** 2
    cells of one output row: past the serial join's peak, the helper adds
    at most one row of products and numpy's ufunc buffers (8192 cells an
    operand), whether the serial join's block holds four rows (n = 128) or
    one row is above BLOCK_CELLS (n = 300)."""
    starts, rng = thread_starts(monkeypatch), np.random.default_rng(0)
    a1, a2 = rng.random((n, n)), rng.random((n, n))
    peaks = []
    for cpus in (1, 2):
        [contract] = _contractions(monkeypatch, chain_source(n), MIN_TROPICAL, cpus)
        tracemalloc.start()
        try:
            contract(a1, a2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(starts) == 1
    assert peaks[1] - peaks[0] < 2 * n * n * a1.itemsize + 2 ** 18, peaks


def _split_sources(spec):
    """The corpus, 10 random programs, chain-128 and paths-shaped programs,
    whose 128**3-cell joins `spec` splits; boolean edges weigh 1."""
    weight = "1" if spec.name == "boolean" else None
    return [load(name) for name in IDEMPOTENT_CORPUS] + \
        [gen.random_program(seed) for seed in range(10)] + [chain_source(128)] + \
        [paths_source(seed, 128, weight) for seed in range(3)]


@pytest.mark.parametrize("spec", [BOOLEAN_LOOP, MIN_TROPICAL, REAL_LOOP], ids=lambda spec: spec.name)
def test_split_contractions_match_serial(monkeypatch, spec):
    """With two usable CPUs a large join in the generic loop is computed in
    two halves of its output rows on two threads, and with one in one loop:
    the same bits, rounds, convergence and nan stop, under any semiring."""
    starts = thread_starts(monkeypatch)
    for src in _split_sources(spec):
        lowered = lower_program(checked(src), "monomorphize", spec)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(skn_eval, "USABLE_CPUS", cpus)
            results.append(fixpoint(lowered, spec, max_iters=300))
        serial, split = results
        assert (split.iterations, split.converged, split.stopped_on_nan) == \
            (serial.iterations, serial.converged, serial.stopped_on_nan)
        for name, table in serial.tables.items():
            assert np.array_equal(split.tables[name].cells, table.cells, equal_nan=True), name
    assert starts


def test_split_helper_error_is_raised_after_the_join(monkeypatch):
    """A MemoryError in the helper thread, here from its products, is
    raised by `fixpoint` once the helper is joined, and no thread is left."""
    def mul(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError
        return np.add(*args, **kwargs)

    monkeypatch.setattr(skn_eval, "USABLE_CPUS", 2)
    threads, starts = threading.active_count(), thread_starts(monkeypatch)
    with pytest.raises(MemoryError):
        fixpoint(checked(chain_source(128)), dataclasses.replace(MIN_TROPICAL, mul=mul))
    assert len(starts) == 1 and threading.active_count() == threads


def test_split_without_a_thread_sums_both_halves(monkeypatch):
    """If the helper thread cannot be started, the caller sums the whole
    binder itself, and the tables are the serial ones."""
    program = checked(paths_source(1))
    monkeypatch.setattr(skn_eval, "USABLE_CPUS", 1)
    serial = fixpoint(program, MIN_TROPICAL)
    refused = []

    def start(self):
        refused.append(self)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(skn_eval, "USABLE_CPUS", 2)
    split = fixpoint(program, MIN_TROPICAL)
    assert refused and (split.iterations, split.converged) == (serial.iterations, serial.converged)
    for name, table in serial.tables.items():
        assert np.array_equal(split.tables[name].cells, table.cells), name


@pytest.mark.parametrize("spec", [BOOLEAN, MIN_TROPICAL], ids=lambda spec: spec.name)
def test_contraction_memory_is_quadratic(spec):
    """chain-N's connect sums z out of connect(x, z) and connect(z, y) each
    round.  Their product has N ** 3 cells; without it the largest arrays
    have N ** 2, so doubling N multiplies the peak by at most about 4,
    where the product would multiply it by 8."""
    peaks = []
    for n in (100, 200):
        program = checked(chain_source(n))
        tracemalloc.start()
        try:
            res = fixpoint(program, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.converged
    assert peaks[1] < 5 * peaks[0], peaks


# ---------------------------------------------------------------------------
# rounds from the last round's changes (Δ rounds)

def _negative_chains() -> list[str]:
    """chain-12 with one more edge weighted -1: a back edge from node 6 to
    3 or 11 to 5, or a loop at node 0 or 10.  Its cycle's sums double each
    round until one overflows to -inf and meets the inf of a pair with no
    path, so min-tropical stops on nan at round 1026-1029."""
    _, vals = right_nested_sum(12)
    return [chain_source(12).replace(
        "  (disj\n", f"  (disj\n    (conj (== x {vals[a]}) (== y {vals[b]}) (factor -1))\n", 1)
        for a, b in ((6, 3), (11, 5), (0, 0), (10, 10))]


def _idempotent_sources(spec) -> list[str]:
    """The idempotent comparison set: the corpus, `gen` seeds 0-59 default
    and with large calls, chain-40, chain-128 and reach over chain-60, and
    under min-tropical also paths-shaped programs (seeds 0-3, and seed 0
    with every edge -1 or 0.1) and the negative chains."""
    sources = [load(name) for name in IDEMPOTENT_CORPUS] + \
        [gen.random_program(seed, large_calls=large)
         for seed in range(60) for large in (False, True)] + \
        [chain_source(40), chain_source(128), reach_source(60)]
    if spec is MIN_TROPICAL:
        sources += [paths_source(seed) for seed in range(4)] + \
            [paths_source(0, 128, weight) for weight in ("-1", "0.1")] + _negative_chains()
    return sources


@pytest.mark.parametrize("spec", [MIN_TROPICAL, BOOLEAN_LOOP], ids=["min-tropical", "boolean-loop"])
def test_delta_rounds_match_full_rounds(monkeypatch, spec):
    """With every round after the first run from the last round's changes
    (`DELTA_FRACTION` inf), against none (0): the same tables bit for bit,
    the same rounds, convergence and nan stop, in both lowering modes (a
    program without type variables lowers to itself in both, so it runs
    once)."""
    rounds = collections.Counter()
    original = skn_eval._delta_round

    def counting(*args):
        rounds[spec.name] += 1
        return original(*args)

    monkeypatch.setattr(skn_eval, "_delta_round", counting)
    for src in _idempotent_sources(spec):
        program = checked(src)
        generic = any(rel.tyvars for rel in program.relations)
        for mode in ("monomorphize", "large-enough") if generic else ("monomorphize",):
            lowered = lower_program(program, mode, spec)
            results = []
            for fraction in (0, math.inf):
                monkeypatch.setattr(skn_eval, "DELTA_FRACTION", fraction)
                try:
                    results.append(fixpoint(lowered, spec, max_iters=2000))
                except MemoryError:  # an array too big: `gen` seed 0 with large calls
                    results.append(MemoryError)
            full, delta = results
            if full is MemoryError or delta is MemoryError:
                assert full is delta
                continue
            assert (delta.iterations, delta.converged, delta.stopped_on_nan) == \
                (full.iterations, full.converged, full.stopped_on_nan)
            for name, table in full.tables.items():
                assert np.array_equal(delta.tables[name].cells, table.cells, equal_nan=True), name
    assert rounds[spec.name] > 59  # reach over chain-60 alone takes 59


def _three_call_source(n: int, loop: int) -> str:
    """An n-node path of weight-1 edges and a loop of weight -1 at node
    `loop`, closed by `g`, which joins three calls of itself."""
    t, vals = right_nested_sum(n)
    edges = [(a, a + 1, 1) for a in range(n - 1)] + [(loop, loop, -1)]
    rows = "\n".join(f"    (conj (== x {vals[a]}) (== y {vals[b]}) (factor {w}))" for a, b, w in edges)
    return (f"(defrel (e (x : {t}) (y : {t}))\n  (disj\n{rows}))\n"
            f"(defrel (g (x : {t}) (y : {t}))\n  (disj (e x y)\n"
            f"    (fresh ((z : {t}) (w : {t})) (conj (g x z) (g z w) (g w y)))))\n")


@pytest.mark.parametrize("n", [6, 12])
def test_delta_round_that_yields_nan_runs_in_full(monkeypatch, n):
    """The loop's sums triple each round until one overflows to -inf.  A
    sum of two calls can overflow inside a three-call term whose third call
    reads a zero cell of Δ, where the full round's reads a finite cell, and
    inf + -inf is nan.  Such a round is run again in full, so with every
    join in blocks of one row and every round after the first run from
    changes, the tables, rounds and nan stop are the full rounds'."""
    monkeypatch.setattr(skn_eval, "BLOCK_CELLS", 1)
    program, results, yielded_nan = checked(_three_call_source(n, 2)), [], []
    delta_round = skn_eval._delta_round

    def watching(*args):
        new = delta_round(*args)
        yielded_nan.append(new is None)
        return new

    monkeypatch.setattr(skn_eval, "_delta_round", watching)
    for fraction in (0, math.inf):
        monkeypatch.setattr(skn_eval, "DELTA_FRACTION", fraction)
        results.append(fixpoint(program, MIN_TROPICAL, max_iters=2000))
    full, delta = results
    assert full.stopped_on_nan and (delta.iterations, delta.stopped_on_nan) == (full.iterations, True)
    assert np.array_equal(delta.tables["g"].cells, full.tables["g"].cells, equal_nan=True)
    assert any(yielded_nan) and len(yielded_nan) > 600


def test_no_delta_round_reads_a_cell_zero_does_not_annihilate(monkeypatch):
    """chain-12 with a loop of weight -1 at node 0 doubles its sums each
    round until one overflows to -inf.  Every round before that is run from
    the last round's changes (`DELTA_FRACTION` inf), and none after: zero
    times -inf is nan, not zero, so a Δ plan could skip a term that the full
    round computes."""
    _, vals = right_nested_sum(12)
    program = checked(chain_source(12).replace(
        "  (disj\n", f"  (disj\n    (conj (== x {vals[0]}) (== y {vals[0]}) (factor -1))\n", 1))
    monkeypatch.setattr(skn_eval, "DELTA_FRACTION", math.inf)
    read_neginf = []
    delta_round = skn_eval._delta_round

    def watching(plans, tables, deltas, spec):
        read_neginf.append(any(np.isneginf(t.cells).any() for t in tables.values()))
        return delta_round(plans, tables, deltas, spec)

    monkeypatch.setattr(skn_eval, "_delta_round", watching)
    overflowed = []
    res = fixpoint(program, MIN_TROPICAL, max_iters=2000, on_round=lambda it, old, new:
                   overflowed.append(np.isneginf(old["connect"].cells).any()))
    assert res.stopped_on_nan and overflowed[-1]
    assert len(read_neginf) > 1000 and not any(read_neginf)


def test_last_round_multiplies_only_changes():
    """dist's last round on a paths-shaped program changes no cell, and the
    round before changes one, so it is run from that change.  Each of its
    two Δ plans multiplies, for each changed cell, one binder value in one
    block of four output rows: at most 8 * |Δ| * 128 product cells, where a
    full round multiplies 128**3.  Products of one cell are not counted:
    they are `_annihilates`' tests of zero, not products of the join."""
    spec, sizes = _counting(MIN_TROPICAL)
    rounds = []

    def on_round(it, old, new):
        if "dist" in new:
            changed = np.count_nonzero(new["dist"].cells != old["dist"].cells)
            rounds.append((sum(size for size in sizes if size > 1), changed))
        sizes.clear()

    res = fixpoint(checked(paths_source(0, 128)), spec, on_round=on_round)
    (_, delta), (cells, last) = rounds[-2:]
    assert res.converged and last == 0 and delta == 1
    assert 0 < cells <= 8 * delta * 128 and rounds[-3][0] > 128 ** 3 / 2, rounds


def test_linear_group_multiplies_quadratic_cells():
    """reach over chain-n adds one node a round, in n rounds.  A full round
    multiplies reach's n cells with graph's n**2, so n**3 cells in all; a
    round run from the last one's change multiplies only the changed node's
    row of graph, n cells.  Doubling n multiplies the cells by about 4, not
    8."""
    totals = []
    for n in (100, 200):
        spec, sizes = _counting(MIN_TROPICAL)
        res = fixpoint(checked(reach_source(n)), spec)
        assert res.converged and res.iterations == n
        assert res.tables["reach"].cells[1:].max() == 0 and res.tables["reach"].cells[0] == math.inf
        totals.append(sum(sizes))
    assert totals[1] < 5 * totals[0] and totals[1] < 200 ** 3 / 4, totals


def test_kernel_joins_compile_no_delta_plan(monkeypatch):
    """reach over chain-64 under boolean, whose joins run on its kernel,
    compiles one plan per relation.  Without the kernel, its rounds from the
    last one's changes compile one Δ plan more, for reach's one call of
    itself, with the same tables and rounds."""
    compiled, original = [], skn_eval.compile_relation
    monkeypatch.setattr(skn_eval, "compile_relation",
                        lambda *args: compiled.append(args[0].name) or original(*args))
    results = []
    for spec, want in ((BOOLEAN, ["graph", "reach"]), (BOOLEAN_LOOP, ["graph", "reach", "reach"])):
        compiled.clear()
        results.append(fixpoint(checked(reach_source(64)), spec))
        assert results[-1].converged and results[-1].iterations == 64 and compiled == want
    assert np.array_equal(results[0].tables["reach"].cells, results[1].tables["reach"].cells)
