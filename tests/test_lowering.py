from dataclasses import replace

import numpy as np
import pytest

from skn import (
    BOOLEAN, MIN_TROPICAL, REAL, InstanceExplosion, NonIdempotentSemiring, Sum,
    check_program, lower_program, parse_program,
    canonical_type,
)
from skn import poly
from skn.syntax import (
    Call, Disunify, TyVar, Unify, map_goal, render_program, subgoals,
)
from skn.typecheck import apply_subst

import gen
import oracle
import props
from eqpat import eqpat_check
from helpers import (
    IDEMPOTENT_CORPUS, InstanceKey, chain_source, checked, collect_instances, load,
    run_source,
)


def _keys(src, mode):
    program = check_program(parse_program(src))
    return collect_instances(program, mode)


# ---------------------------------------------------------------------------
# instance collection

def test_monomorphic_program_instances_are_its_relations():
    keys = _keys(load("coin-flip.skn"), "monomorphize")
    assert keys == {InstanceKey("coin-flip", ())}


def test_sum_swap_instances_by_mode():
    mono = _keys(load("sum-swap.skn"), "monomorphize")
    assert InstanceKey("sum-swap", (("a", 3), ("b", 3))) in mono
    assert InstanceKey("sum-swap", (("a", 3), ("b", 4))) in mono
    le = _keys(load("sum-swap.skn"), "large-enough")
    assert InstanceKey("sum-swap", (("a", 3), ("b", 3))) in le
    assert InstanceKey("sum-swap", (("a", 3), ("b", 4))) not in le


def test_option_map_corpus_instances():
    le = _keys(load("option-map.skn"), "large-enough")
    # both calls sit below their large-enough sizes and monomorphize
    assert InstanceKey("sum-swap", (("a", 1), ("b", 1))) in le
    assert InstanceKey("option-map", (("a", 2), ("b", 2))) in le


def test_two_valued_small_call_monomorphized_in_both_modes():
    for mode in ("monomorphize", "large-enough"):
        keys = _keys(load("two-valued.skn"), mode)
        assert InstanceKey("two-valued", (("a", 1),)) in keys
        assert InstanceKey("two-valued", (("a", 2),)) in keys


def test_uncalled_polymorphic_relation_left_out():
    src = """
    (defrel (ghost (x : a)) (== x x))
    (defrel (main (u : Unit)) (== u u))
    """
    lowered = lower_program(check_program(parse_program(src)), "monomorphize", BOOLEAN)
    assert lowered.names() == ["main"]


def test_instance_explosion_on_polymorphic_recursion():
    src = """
    (defrel (grow (v : a))
      (disj (== v v)
            (fresh ((p : (Prod a a))) (grow p))))
    (defrel (main (x : (Sum Unit Unit))) (grow x))
    """
    with pytest.raises(InstanceExplosion):
        lower_program(check_program(parse_program(src)), "monomorphize", BOOLEAN)


def test_large_enough_requires_idempotent_addition():
    with pytest.raises(NonIdempotentSemiring):
        lower_program(check_program(parse_program(load("equal.skn"))),
                      "large-enough", REAL)


def test_unknown_poly_mode_rejected():
    with pytest.raises(ValueError, match="unknown poly mode 'eager'"):
        lower_program(check_program(parse_program(load("equal.skn"))), "eager", BOOLEAN)


def test_already_monomorphic_program_unchanged():
    for mode in ("monomorphize", "large-enough"):
        program = check_program(parse_program(load("connect.skn")))
        lowered = lower_program(program, mode, BOOLEAN)
        assert lowered == program


def _record_recheck(monkeypatch):
    """Each (argument, result) of the re-check that `lower_program` makes."""
    calls = []

    def check_program(p):
        calls.append((p, original(p)))
        return calls[-1][1]

    original = poly.check_program
    monkeypatch.setattr(poly, "check_program", check_program)
    return calls


@pytest.mark.parametrize("mode", ["monomorphize", "large-enough"])
@pytest.mark.parametrize("name", ["coin-flip.skn", "coins.skn", "connect.skn", "chain-6"])
def test_lowering_keeps_untouched_relations_without_a_recheck(monkeypatch, name, mode):
    program = checked(chain_source(6) if name == "chain-6" else load(name))
    calls = _record_recheck(monkeypatch)
    lowered = lower_program(program, mode, BOOLEAN)
    assert [p.relations for p, _ in calls] == [()]
    assert len(lowered.relations) == len(program.relations)
    assert all(a is b for a, b in zip(lowered.relations, program.relations))


@pytest.mark.parametrize("mode", ["monomorphize", "large-enough"])
@pytest.mark.parametrize("name", ["coin-flip.skn", "coins.skn", "connect.skn", "chain-6",
                                  "sum-swap.skn"])
def test_lowering_walks_goals_only_with_a_polymorphic_relation(monkeypatch, name, mode):
    # the name supply and the search for polymorphic calls each walk goals,
    # and a program with no polymorphic relation needs neither
    program = checked(chain_source(6) if name == "chain-6" else load(name))
    walks = []
    for walker in ("subgoals", "walk_goal"):
        original = getattr(poly, walker)
        monkeypatch.setattr(poly, walker, lambda g, walk=original: walks.append(g) or walk(g))
    lower_program(program, mode, BOOLEAN)
    if name == "sum-swap.skn":
        assert walks
    else:
        assert walks == []


KEPT_CALLEES = """
(defrel (edge (x : (Sum Unit Unit)) (y : (Sum Unit Unit))) (=/= x y))
(defrel (hop (x : (Sum Unit Unit)) (y : (Sum Unit Unit)))
  (fresh ((z : (Sum Unit Unit))) (conj (edge x z) (edge z y))))
(defrel (swap (forall a b) (x : (Sum a b)) (y : (Sum b a)))
  (disj (fresh ((v : a)) (conj (== x (left v)) (== y (right v))))
        (fresh ((w : b)) (conj (== x (right w)) (== y (left w))))))
(defrel (main (x : (Sum Unit Unit)) (y : (Sum Unit Unit)))
  (disj (hop x y) (swap x y)))
(defrel (alone (u : Unit)) (== u u))
"""


@pytest.mark.parametrize("mode", ["monomorphize", "large-enough"])
@pytest.mark.parametrize("name", ["option-map.skn", "sum-swap.skn", "kept-callees"])
def test_recheck_covers_only_what_the_lowering_builds(monkeypatch, name, mode):
    # the instances, the relations with a polymorphic call, and the kept
    # relations those call; a kept relation's own callees stay out
    program = checked(KEPT_CALLEES if name == "kept-callees" else load(name))
    source = {rel.name: rel for rel in program.relations}
    calls = _record_recheck(monkeypatch)
    lowered = lower_program(program, mode, BOOLEAN)
    rewritten = {rel.name for rel in program.relations if not rel.tyvars and any(
        isinstance(g, Call) and source[g.rel].tyvars for g in subgoals(rel.body))}
    built = [rel for rel in lowered.relations
             if rel.name in rewritten or rel.name not in source]
    kept_callees = {g.rel for rel in built for g in subgoals(rel.body)
                    if isinstance(g, Call) and g.rel in source} - rewritten
    [(argument, result)] = calls
    assert sorted(argument.names()) == sorted({rel.name for rel in built} | kept_callees)
    assert all(any(rel is r for r in result.relations) for rel in built)
    assert all(rel is source[rel.name] for rel in lowered.relations
               if rel.name in source and rel.name not in rewritten)
    if name == "kept-callees":
        assert kept_callees == {"hop"}
        assert lowered.names()[:2] == ["edge", "hop"] and "alone" in lowered.names()
    assert check_program(lowered) == lowered  # what a re-check of everything gives


# ---------------------------------------------------------------------------
# lowered programs are well-typed base programs

def test_lowered_output_passes_base_checking():
    for name in IDEMPOTENT_CORPUS:
        for mode in ("monomorphize", "large-enough"):
            lowered = lower_program(check_program(parse_program(load(name))),
                                    mode, BOOLEAN)
            assert all(rel.tyvars == () for rel in lowered.relations)
            check_program(lowered)  # must not raise


@pytest.mark.parametrize("mode", ["monomorphize", "large-enough"])
def test_checking_and_lowering_add_no_annotations(mode):
    # checked values stay as written, and the re-check of the lowered
    # program infers sum types instead of writing them in
    sources = [chain_source(8)] + [load(n) for n in IDEMPOTENT_CORPUS]
    for src in [s for s in sources if "{" not in s]:
        program = parse_program(src)
        checked = check_program(program)
        assert [replace(r, body=_unchecked(r.body)) for r in checked.relations] == \
            list(program.relations)
        assert "{" not in render_program(lower_program(checked, mode, BOOLEAN))


def _unchecked(g):
    """`g` without the types and call substitutions that checking records."""
    return map_goal(g, lambda h, _: replace(h, ty=None) if isinstance(h, (Unify, Disunify))
                    else replace(h, subst=None) if isinstance(h, Call) else h)


# ---------------------------------------------------------------------------
# the generated equality-pattern goal (exhaustive law check)

def test_enforce_eqpat_matches_checker():
    assert props.check_enforce_eqpat() >= 1000


# ---------------------------------------------------------------------------
# eqpat-related cells of differently sized instances agree

def test_sum_swap_tables_agree_on_related_cells():
    _, res = run_source(load("sum-swap.skn"), BOOLEAN, "monomorphize")
    t33 = res.tables["sum-swap$3_3"]
    t34 = res.tables["sum-swap$3_4"]
    delta = (("x", Sum(TyVar("a"), TyVar("b"))), ("y", Sum(TyVar("b"), TyVar("a"))))
    sig33 = {"a": canonical_type(3), "b": canonical_type(3)}
    sig34 = {"a": canonical_type(3), "b": canonical_type(4)}
    values33 = [oracle.type_values(apply_subst(sig33, ty)) for _, ty in delta]
    values34 = [oracle.type_values(apply_subst(sig34, ty)) for _, ty in delta]
    checked = 0
    for i33 in np.ndindex(*t33.cells.shape):
        env1 = {x: vs[i] for i, (x, _), vs in zip(i33, delta, values33)}
        for i34 in np.ndindex(*t34.cells.shape):
            env2 = {x: vs[i] for i, (x, _), vs in zip(i34, delta, values34)}
            if eqpat_check(delta, env1, env2):
                assert t33.cells[i33] == t34.cells[i34], (i33, i34)
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# compiled calls agree with direct monomorphization

def _tables_by_mode(src, spec):
    out = {}
    for mode in ("monomorphize", "large-enough"):
        lowered, res = run_source(src, spec, mode)
        assert res.converged
        out[mode] = (lowered, res.tables)
    return out


def _assert_modes_agree(src, spec):
    both = _tables_by_mode(src, spec)
    lowered_m, tables_m = both["monomorphize"]
    lowered_l, tables_l = both["large-enough"]
    shared = [rel.name for rel in lowered_m.relations
              if rel.name in tables_l
              and tables_l[rel.name].params == tuple(rel.params)]
    assert shared
    for name in shared:
        assert np.array_equal(tables_m[name].cells, tables_l[name].cells), name


def test_corpus_modes_agree():
    for name in IDEMPOTENT_CORPUS:
        for spec in (BOOLEAN, MIN_TROPICAL):
            _assert_modes_agree(load(name), spec)


def test_random_programs_modes_agree_sample():
    for seed in range(25):
        src = gen.random_program(seed)
        for spec in (BOOLEAN, MIN_TROPICAL):
            _assert_modes_agree(src, spec)


def test_sum_swap_at_mixed_sizes():
    # with a one-value left component and a two-value right component,
    # swapping (left sole) gives (right sole) and vice versa
    swap = load("sum-swap.skn").split("(defrel (sum-swap-3-3")[0]
    src = swap + """
    (defrel (swap-from-left (q : (Sum (Sum Unit Unit) Unit)))
      (sum-swap (left {(Sum Unit (Sum Unit Unit))} sole) q))
    (defrel (swap-from-right (q : (Sum (Sum Unit Unit) Unit)))
      (sum-swap (right {(Sum Unit (Sum Unit Unit))} (right sole)) q))
    """
    for mode in ("monomorphize", "large-enough"):
        _, res = run_source(src, BOOLEAN, mode)
        assert res.tables["swap-from-left"].cells.tolist() == [False, False, True]
        assert res.tables["swap-from-right"].cells.tolist() == [False, True, False]


def test_recursive_polymorphic_relation_through_both_modes():
    # reflexive-transitive closure of equality is equality at every size
    src = """
    (defrel (chain (x : a) (y : a))
      (disj (== x y)
            (fresh ((z : a)) (conj (chain x z) (chain z y)))))
    (defrel (chain-2 (x : (Sum Unit Unit)) (y : (Sum Unit Unit)))
      (chain x y))
    (defrel (chain-4 (x : (Sum Unit (Sum Unit (Sum Unit Unit))))
                     (y : (Sum Unit (Sum Unit (Sum Unit Unit)))))
      (chain x y))
    """
    for mode in ("monomorphize", "large-enough"):
        lowered, res = run_source(src, BOOLEAN, mode)
        assert res.converged
        assert np.array_equal(res.tables["chain-2"].cells, np.eye(2, dtype=bool))
        assert np.array_equal(res.tables["chain-4"].cells, np.eye(4, dtype=bool))
    # the size-4 call is served by the large-enough size-3 instance
    keys = _keys(src, "large-enough")
    assert InstanceKey("chain", (("a", 3),)) in keys
    assert InstanceKey("chain", (("a", 4),)) not in keys


def test_literal_argument_calls_fall_back_and_still_work():
    # constructor arguments cannot be typed generically, so these calls
    # monomorphize in both modes and keep their meaning
    for mode in ("monomorphize", "large-enough"):
        _, res = run_source(load("equal.skn"), BOOLEAN, mode)
        assert res.tables["equal-soles"].cells.tolist() == [True]
        assert res.tables["equal-mismatch"].cells.tolist() == [False]


def test_compiled_call_at_exact_target_size_is_direct():
    # a size-(3,3) call needs no wrapper: the lowered body is a plain call
    lowered = lower_program(check_program(parse_program(load("sum-swap.skn"))),
                            "large-enough", BOOLEAN)
    from skn.syntax import Call
    body = lowered.relation("sum-swap-3-3").body
    assert isinstance(body, Call) and body.rel == "sum-swap$3_3"
    # while the (3,4) call gets the fresh-plus-enforcement wrapper
    assert not isinstance(lowered.relation("sum-swap-3-4").body, Call)
