import dataclasses
import io
import sys

import numpy as np
import pytest

from skn import (
    BOOLEAN, MIN_TROPICAL, Call, Disj, Fresh, Left, Pair, Program, Prod,
    RelationDef, Right, SOLE, Sum, TyVar, UNIT, Unify, Var, canonical_type,
    check_program, check_type_valid, fixpoint, generic_arg_env, lower_program,
    parse_program, render_type, type_of_value,
)
from skn import poly, typecheck
from skn.cli import RunConfig, run
from skn.syntax import free_vars, map_goal, subgoals
from skn.typecheck import TypeCheckError, TypeEnv, UninferableValue, match_type

from helpers import CORPUS, chain_source, load


S2 = Sum(UNIT, UNIT)


def env(*pairs, tyvars=()):
    return TypeEnv(tuple(pairs), frozenset(tyvars))


# ---------------------------------------------------------------------------
# type validity

def test_valid_type_with_bound_tyvar():
    check_type_valid(env(tyvars=["a"]), Sum(TyVar("a"), UNIT))


def test_unbound_tyvar_rejected():
    with pytest.raises(TypeCheckError) as e:
        check_type_valid(env(), TyVar("a"))
    assert "a" in str(e.value)


def test_concrete_type_valid_anywhere():
    check_type_valid(env(), Prod(UNIT, UNIT))


# ---------------------------------------------------------------------------
# value typing

def test_variable_takes_env_type():
    assert type_of_value(env(("x", TyVar("a")), tyvars=["a"]), Var("x")) == TyVar("a")


def test_annotated_left():
    assert type_of_value(env(), Left(SOLE, S2)) == S2


def test_pair_against_sum_expected_fails():
    with pytest.raises(TypeCheckError):
        type_of_value(env(), Pair(SOLE, SOLE), expected=S2)


def test_bare_left_needs_context():
    with pytest.raises(TypeCheckError):
        type_of_value(env(), Left(SOLE))


# Each value or type below has two faults, and the one first in
# left-to-right pre-order is reported.  The other sits nearer the root,
# later in the same pair, or below the first, so a walk that went
# breadth-first or checked children before parents would report it.
S3 = Sum(UNIT, S2)
TWO = Prod(Prod(S2, UNIT), S3)


@pytest.mark.parametrize("v, expected, message", [
    pytest.param(Pair(Pair(SOLE, SOLE), SOLE), TWO,
                 "sole has type Unit, expected (Sum Unit Unit)", id="sole"),
    pytest.param(Pair(Pair(Var("u"), Var("u")), Var("u")), TWO,
                 "u has type Unit, expected (Sum Unit Unit)", id="variable"),
    pytest.param(Pair(Pair(Var("z"), SOLE), Var("w")), TWO,
                 "unbound variable 'z'", id="unbound-variable"),
    pytest.param(Pair(Pair(Left(SOLE, S3), SOLE), Left(SOLE, S2)), TWO,
                 "annotation (Sum Unit (Sum Unit Unit)) does not match expected "
                 "(Sum Unit Unit)", id="annotation"),
    pytest.param(Pair(Pair(Left(SOLE, Sum(TyVar("b"), UNIT)), SOLE),
                      Left(SOLE, Sum(TyVar("c"), UNIT))), TWO,
                 "unbound type variable b", id="annotation-tyvar"),
    pytest.param(Pair(Pair(Right(SOLE), Right(SOLE)), Left(SOLE)),
                 Prod(Prod(Prod(UNIT, UNIT), UNIT), UNIT),
                 "right constructor needs a Sum type, got (Prod Unit Unit)", id="needs-sum"),
    pytest.param(Pair(Pair(Pair(SOLE, SOLE), SOLE), Pair(SOLE, SOLE)), TWO,
                 "pair value cannot have type (Sum Unit Unit)", id="pair"),
    pytest.param(Left(Pair(SOLE, Var("z")), S3), S2,
                 "annotation (Sum Unit (Sum Unit Unit)) does not match expected "
                 "(Sum Unit Unit)", id="parent-first"),
    pytest.param(Pair(Pair(Left(SOLE), SOLE), Right(Var("z"))), None,
                 "cannot infer the sum type of (left sole); annotate it", id="uninferable"),
])
def test_value_reports_its_first_fault_in_pre_order(v, expected, message):
    with pytest.raises(TypeCheckError) as e:
        type_of_value(env(("u", UNIT)), v, expected)
    assert str(e.value) == message
    assert isinstance(e.value, UninferableValue) == (expected is None)


@pytest.mark.parametrize("pattern, actual, message", [
    pytest.param(Prod(Prod(S2, TyVar("a")), Prod(UNIT, UNIT)), Prod(Prod(UNIT, UNIT), UNIT),
                 "cannot match (Sum Unit Unit) against Unit", id="shape"),
    pytest.param(Prod(Prod(Sum(TyVar("a"), UNIT), UNIT), UNIT), Prod(Prod(UNIT, S2), S2),
                 "cannot match (Sum a Unit) against Unit", id="misfit"),
    pytest.param(Prod(Prod(TyVar("a"), TyVar("b")), Prod(TyVar("a"), TyVar("b"))),
                 Prod(Prod(UNIT, UNIT), Prod(S2, S3)),
                 "type variable a matched to both Unit and (Sum Unit Unit)", id="two-bindings"),
])
def test_match_reports_its_first_fault_in_pre_order(pattern, actual, message):
    with pytest.raises(TypeCheckError) as e:
        match_type(pattern, actual, {}, frozenset("ab"))
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# depth: relations and values built as ASTs, deeper than the reader reads

def _sums(depth, end=UNIT):
    """`depth` sums, each with Unit on the left, around `end`."""
    for _ in range(depth):
        end = Sum(UNIT, end)
    return end


def _rights(depth, end):
    for _ in range(depth):
        end = Right(end)
    return end


def test_deep_unify_checks_lowers_and_solves():
    depth = 5000
    assert sys.getrecursionlimit() < depth
    t, x = _sums(depth), Var("x")
    # value k of t is k rights around a left; the first is checked against
    # x's type, the second inferred from x after it fails to infer alone
    rel = RelationDef("deep", (), (("x", t),),
                      Disj(Unify(x, _rights(depth - 1, Left(SOLE))),
                           Unify(_rights(depth, SOLE), x)))
    for mode in ("monomorphize", "large-enough"):
        lowered = lower_program(check_program(Program((rel,))), mode, BOOLEAN)
        result = fixpoint(lowered, BOOLEAN)
        assert result.converged
        assert result.tables["deep"].cells.nonzero()[0].tolist() == [depth - 1, depth]


def _deep_generic(depth, at):
    """p over `depth` sums around its type variable a, true at the rightmost
    branch; q calls p at a = `at`."""
    generic, ground = _sums(depth, TyVar("a")), _sums(depth, at)
    p = RelationDef("p", ("a",), (("x", generic),),
                    Fresh((("h", TyVar("a")),), Unify(Var("x"), _rights(depth, Var("h")))))
    q = RelationDef("q", (), (("y", ground),), Call("p", (Var("y"),)))
    return check_program(Program((p, q)))


def test_deep_generic_parameter_checks_lowers_and_solves():
    # p's body checks a 3000-deep value along its generic parameter type, and
    # the call matches that type against the caller's; x is p's iff it is
    # the rightmost branch, so q holds at its last two values
    depth = 3000
    assert sys.getrecursionlimit() < depth
    checked = _deep_generic(depth, S2)
    assert checked.relation("q").body.subst == (("a", S2),)
    result = fixpoint(lower_program(checked, "monomorphize", BOOLEAN), BOOLEAN)
    assert result.converged
    assert result.tables["q"].cells.nonzero()[0].tolist() == [depth, depth + 1]


def test_deep_generic_call_lowers_large_enough_and_solves():
    # p's large-enough size for a is 2, so a call at a three-value type is
    # wrapped: its pattern code has a sum variable per side at each of the
    # 1500 sums, and its gather reads a canonical copy along them
    depth = 1500
    assert sys.getrecursionlimit() < depth
    checked = _deep_generic(depth, Sum(UNIT, S2))
    tables, calls = {}, {}
    for mode in ("monomorphize", "large-enough"):
        lowered = lower_program(checked, mode, BOOLEAN)
        result = fixpoint(lowered, BOOLEAN)
        assert result.converged
        tables[mode], calls[mode] = result.tables["q"].cells, lowered.relation("q").body
    assert isinstance(calls["large-enough"], Fresh) and calls["large-enough"].wrap
    assert np.array_equal(tables["large-enough"], tables["monomorphize"])
    assert tables["monomorphize"].nonzero()[0].tolist() == [depth, depth + 1, depth + 2]


def _checker_lines(depth):
    """The lines the checker runs while `_deep_generic(depth, ...)` lowers
    large-enough: the re-check of its wrapper, one fresh per sum level."""
    checked, lines = _deep_generic(depth, Sum(UNIT, S2)), 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename == typecheck.__file__
                 else None)
    try:
        lower_program(checked, "large-enough", BOOLEAN)
    finally:
        sys.settrace(old)
    return lines


def test_wrapper_recheck_is_linear_in_depth():
    # each leaf of the wrapper looks its variables up in the one scope the
    # walk keeps, without copying or scanning the binders around it; a scan
    # from the outermost binder made twice the depth cost four times the lines
    assert _checker_lines(2000) < 2.5 * _checker_lines(1000)


def _hole_lookups(monkeypatch, depth):
    """The binder types whose holes `smallest_large_enough` looks up in the
    large-enough wrapper of `_deep_generic(depth, ...)`, one fresh per sum
    level, read as the body of a relation generic in a."""
    lowered = lower_program(_deep_generic(depth, Sum(UNIT, S2)), "large-enough", BOOLEAN)
    rel = dataclasses.replace(lowered.relation("q"), tyvars=("a",))
    lookups, count_env = [], poly.count_env
    monkeypatch.setattr(poly, "count_env",
                        lambda alpha, types: lookups.append(len(types)) or count_env(alpha, types))
    assert poly.smallest_large_enough(rel) == {"a": 1}
    return sum(lookups)


def test_smallest_large_enough_is_linear_in_depth(monkeypatch):
    # one walk keeps a running hole count, adding a fresh's binders on
    # entering it and taking them away on leaving; building every node's
    # environment from the parameters and all enclosing binders made twice
    # the depth cost four times the lookups
    assert _hole_lookups(monkeypatch, 2000) < 3 * _hole_lookups(monkeypatch, 1000)


def test_deep_value_checking_and_matching():
    depth = 5000
    assert sys.getrecursionlimit() < depth
    t, v, pattern = UNIT, SOLE, TyVar("a")
    for i in range(depth):
        t, v = Prod(Sum(UNIT, UNIT), t), Pair(Left(SOLE) if i % 2 else Var("s"), v)
        pattern = Prod(Sum(UNIT, UNIT), pattern)
    assert type_of_value(env(("s", S2)), v, t) is t
    binding = {}
    match_type(pattern, t, binding, frozenset("a"))
    assert binding == {"a": UNIT}
    assert generic_arg_env((pattern,), (v,)) is None  # sole sits at a
    assert generic_arg_env((pattern, pattern), (Var("y"), Var("y"))) == (("y", pattern),)


# ---------------------------------------------------------------------------
# call substitution inference

def _call_subst(src):
    """The substitution recorded on the one call in `main`."""
    (call,) = _collect_calls(check_program(parse_program(src)).relation("main").body)
    return dict(call.subst)


def test_subst_equal_units():
    src = """
    (defrel (r (x : a) (y : a)) (== x y))
    (defrel (main (u : Unit)) (r u u))
    """
    assert _call_subst(src) == {"a": UNIT}


def test_subst_conflict():
    src = """
    (defrel (r (x : a) (y : a)) (== x y))
    (defrel (main (u : Unit) (v : (Sum Unit Unit))) (r u v))
    """
    with pytest.raises(TypeCheckError):
        check_program(parse_program(src))


def test_subst_empty():
    src = """
    (defrel (r) (factor 1))
    (defrel (main (u : Unit)) (r))
    """
    assert _call_subst(src) == {}


def test_subst_structural():
    src = """
    (defrel (r (x : (Sum a b))) (== x x))
    (defrel (main (u : (Sum Unit (Sum Unit Unit)))) (r u))
    """
    assert _call_subst(src) == {"a": UNIT, "b": S2}
    src = """
    (defrel (r (x : (Sum a Unit))) (== x x))
    (defrel (main (u : (Prod Unit Unit))) (r u))
    """
    with pytest.raises(TypeCheckError):
        check_program(parse_program(src))


# ---------------------------------------------------------------------------
# call faults, as `skn run` reports them

# Each program's `main` makes one faulty call; the callee's type variables
# keep the names they are declared with.
CALL_FAULTS = {
    "undefined relation": (
        "(defrel (main (u : Unit)) (ghost u))",
        "main: call to undefined relation 'ghost'"),
    "wrong arity": (
        "(defrel (r (x : Unit) (y : Unit)) (== x y))\n"
        "(defrel (main (u : Unit)) (r u))",
        "main: r takes 2 arguments, got 1"),
    "has type": (
        "(defrel (r (x : a) (y : a)) (== x y))\n"
        "(defrel (main (u : Unit) (v : (Sum Unit Unit))) (r u v))",
        "main: v has type (Sum Unit Unit), expected Unit"),
    "cannot match": (
        "(defrel (first (p : (Prod a Unit))) (== p p))\n"
        "(defrel (main (u : (Sum Unit Unit))) (first u))",
        "main: cannot match (Prod a Unit) against (Sum Unit Unit)"),
    "matched to both": (
        "(defrel (r (p : (Prod a a))) (== p p))\n"
        "(defrel (main (u : (Prod Unit (Sum Unit Unit)))) (r u))",
        "main: type variable a matched to both Unit and (Sum Unit Unit)"),
    "cannot determine": (
        "(defrel (r (x : a)) (== x x))\n"
        "(defrel (main (u : Unit)) (r (left sole)))",
        "main: cannot determine the type of argument 1 in call to r; "
        "annotate its sum constructors"),
    "unconstrained": (
        "(defrel (r (forall a b) (x : a)) (== x x))\n"
        "(defrel (main (u : Unit)) (r u))",
        "r: type variable b of r does not occur in any parameter, so calls could "
        "never determine it; main: type variable b is unconstrained by the arguments"),
}


@pytest.mark.parametrize("src, message", CALL_FAULTS.values(), ids=CALL_FAULTS)
def test_call_fault_messages(tmp_path, src, message):
    path = tmp_path / "fault.skn"
    path.write_text(src + "\n")
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig(str(path), "boolean"), out=out, err=err) == 1
    assert out.getvalue() == ""
    assert not any("\x00" in line for line in err.getvalue().splitlines())
    assert err.getvalue() == f"error: {message}\n"


# Each program makes one faulty value in its one relation.
@pytest.mark.parametrize("src, message", [
    pytest.param("(defrel (r (x : Unit)) (== y sole))",
                 "r: unbound variable 'y'", id="unbound-variable"),
    pytest.param("(defrel (r (x : Unit)) (conj (fresh ((z : Unit)) (== z x)) (== z sole)))",
                 "r: unbound variable 'z'", id="binder-after-its-fresh"),
    pytest.param("(defrel (r (x : Unit))"
                 " (fresh ((a : Unit)) (conj (fresh ((b : Unit)) (== a b)) (== b a))))",
                 "r: unbound variable 'b'", id="inner-binder-after-its-fresh"),
    pytest.param("(defrel (r (x : (Sum Unit Unit))) (== x sole))",
                 "r: sole has type Unit, expected (Sum Unit Unit)", id="sole-at-a-sum"),
    pytest.param("(defrel (r (x : (Sum Unit Unit)))"
                 " (== x (left {(Sum Unit (Sum Unit Unit))} sole)))",
                 "r: annotation (Sum Unit (Sum Unit Unit)) does not match expected "
                 "(Sum Unit Unit)", id="annotation-mismatch"),
    pytest.param("(defrel (r (x : Unit)) (== x (left sole)))",
                 "r: left constructor needs a Sum type, got Unit", id="left-at-unit"),
])
def test_value_fault_messages(src, message):
    with pytest.raises(TypeCheckError) as e:
        check_program(parse_program(src))
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# goal and program checking

def test_unify_common_type():
    p = check_program(parse_program(
        "(defrel (r (x : a) (y : a)) (== x y))"))
    assert p.relations[0].body.ty == TyVar("a")


def test_unify_type_mismatch():
    with pytest.raises(TypeCheckError):
        check_program(parse_program(
            "(defrel (r (x : Unit) (y : (Sum Unit Unit))) (== x y))"))


def test_each_ground_operand_outside_freshes_is_walked_once(monkeypatch):
    # chain-64's graph writes 126 ground operands over 64 distinct nodes,
    # all outside freshes, each at its parameter's type
    program = parse_program(chain_source(64))
    graph = program.relation("graph")
    walks = []
    original = typecheck.type_of_value

    def spy(env, v, expected=None):
        if not free_vars(v):
            walks.append(v)
        return original(env, v, expected)

    monkeypatch.setattr(typecheck, "type_of_value", spy)
    typecheck.check_relation({rel.name: rel for rel in program.relations}, graph)
    types = dict(graph.params)
    operands = [(v, types[x]) for pins, _ in graph.body.rows for x, (v, _) in pins.items()]
    pairs = {(id(v), t) for v, t in operands}
    assert (len(operands), len(pairs)) == (126, 64)
    assert len(walks) == len(pairs)


@pytest.mark.parametrize("z2, y, ok", [
    ("(Sum Unit Unit)", "(Sum (Sum Unit Unit) Unit)", True),
    ("(Sum Unit Unit)", "(Sum Unit Unit)", False),  # (left z) at x's type again, z2 ill-typed
])
def test_shared_form_under_freshes_is_checked_at_each(z2, y, ok):
    # one `(left z)` node under two freshes that bind z at different types:
    # each occurrence is checked against its own binder
    src = (f"(defrel (r (x : (Sum Unit Unit)) (y : {y}))"
           f" (conj (fresh ((z : Unit)) (== x (left z)))"
           f" (fresh ((z : {z2})) (== y (left z)))))")
    body = parse_program(src).relations[0].body
    assert body.g1.body.v2 is body.g2.body.v2
    if ok:
        check_program(parse_program(src))
    else:
        with pytest.raises(TypeCheckError, match="z has type"):
            check_program(parse_program(src))


def test_inconsistently_instantiated_call_rejected():
    src = """
    (defrel (r (x : a) (y : a)) (== x y))
    (defrel (main (u : Unit) (v : (Sum Unit Unit))) (r u v))
    """
    with pytest.raises(TypeCheckError):
        check_program(parse_program(src))


def test_undefined_relation():
    with pytest.raises(TypeCheckError):
        check_program(parse_program("(defrel (r (x : Unit)) (ghost x))"))


def test_arity_mismatch():
    src = """
    (defrel (r (x : Unit) (y : Unit)) (== x y))
    (defrel (main (u : Unit)) (r u))
    """
    with pytest.raises(TypeCheckError):
        check_program(parse_program(src))


def test_tyvar_missing_from_params_rejected():
    with pytest.raises(TypeCheckError):
        check_program(parse_program(
            "(defrel (r (forall a b) (x : a)) (fresh ((y : b)) (== y y)))"))


def test_corpus_checks():
    for name in CORPUS:
        check_program(parse_program(load(name)))


def test_check_is_deterministic():
    src = load("option-map.skn")
    assert check_program(parse_program(src)) == check_program(parse_program(src))


def test_option_map_call_subst_recorded():
    p = check_program(parse_program(load("option-map.skn")))
    calls = _collect_calls(p.relations[2].body)  # option-map-example
    om = next(c for c in calls if c.rel == "option-map")
    assert dict(om.subst) == {"a": S2, "b": S2}


def _collect_calls(goal):
    from skn.syntax import Call, Conj, Disj, Fresh
    out = []

    def walk(g):
        if isinstance(g, (Conj, Disj)):
            walk(g.g1)
            walk(g.g2)
        elif isinstance(g, Fresh):
            walk(g.body)
        elif isinstance(g, Call):
            out.append(g)

    walk(goal)
    return out


def test_bare_constructor_inferred_through_call():
    # the second argument's constructors are only typeable once the
    # substitution is pinned by the other arguments
    p = check_program(parse_program(load("option-map.skn")))
    calls = _collect_calls(p.relations[2].body)
    om = next(c for c in calls if c.rel == "option-map")
    assert om.args[1] == Right(Left(SOLE))  # kept as written
    assert dict(om.subst) == {"a": S2, "b": S2}


# ---------------------------------------------------------------------------
# generic argument environments, which the large-enough call rewrite in
# `poly` computes from a checked call's arguments and the callee's
# parameter types

def _checked_call(src, relname, callee):
    """The first call to `callee` in the checked `relname`, the caller's
    scope at it (parameters, then fresh binders) and the callee's
    parameter types."""
    p = check_program(parse_program(src))
    rel = p.relation(relname)
    calls = []

    def leaf(h, scope):
        if isinstance(h, Call) and h.rel == callee:
            calls.append((h, rel.params + tuple(scope.items())))
        return h

    map_goal(rel.body, leaf)
    call, caller_env = calls[0]
    return call, caller_env, tuple(ty for _, ty in p.relation(callee).params)


def test_generic_env_sum_swap():
    call, caller_env, params = _checked_call(load("sum-swap.skn"), "sum-swap-3-3", "sum-swap")
    ge = generic_arg_env(params, call.args)
    assert ge == (("x", Sum(TyVar("a"), TyVar("b"))),
                  ("y", Sum(TyVar("b"), TyVar("a"))))


def test_generic_env_single_occurrence():
    src = """
    (defrel (equal (x : a) (y : a)) (== x y))
    (defrel (main (w : Unit)) (equal w w))
    """
    call, caller_env, params = _checked_call(src, "main", "equal")
    assert generic_arg_env(params, call.args) == \
        (("w", TyVar("a")),)
    assert dict(call.subst) == {"a": UNIT}


def test_non_generic_conflicting_positions():
    # w sits at a generic position and at a concrete one of the same size
    src = """
    (defrel (r (x : a) (y : (Sum Unit Unit))) (== y y))
    (defrel (main (w : (Sum Unit Unit))) (r w w))
    """
    call, caller_env, params = _checked_call(src, "main", "r")
    assert generic_arg_env(params, call.args) is None
    notes = []  # recorded as a fallback
    lower_program(check_program(parse_program(src)), "large-enough", BOOLEAN, notes)
    assert notes == ["r: non-generic call, monomorphized"]


def test_generic_env_concrete_var_kept():
    src = """
    (defrel (r (x : a) (y : (Sum Unit Unit))) (== y y))
    (defrel (main (w : Unit) (u : (Sum Unit Unit))) (r w u))
    """
    call, caller_env, params = _checked_call(src, "main", "r")
    assert generic_arg_env(params, call.args) == \
        (("w", TyVar("a")), ("u", S2))


def test_polymorphic_caller_passes_own_tyvar():
    src = """
    (defrel (equal (x : a) (y : a)) (== x y))
    (defrel (outer (p : b) (q : b)) (equal p q))
    """
    call, caller_env, params = _checked_call(src, "outer", "equal")
    assert dict(call.subst) == {"a": TyVar("b")}


def test_caller_tyvar_named_like_callee_tyvar():
    # the binding a -> (Sum a Unit) is applied once: the caller's a stays
    src = """
    (defrel (r (x : a) (y : (Sum a Unit))) (== x x))
    (defrel (main (forall a) (u : (Sum a Unit)) (v : (Sum (Sum a Unit) Unit))) (r u v))
    """
    assert _call_subst(src) == {"a": Sum(TyVar("a"), UNIT)}


def test_generic_env_through_fresh_scope():
    # the (sum-swap h k) call under fresh-bound h, k of two-value type
    swap, caller_env, params = _checked_call(load("option-map.skn"),
                                             "option-map-example", "sum-swap")
    assert [x for x, _ in caller_env][-2:] == ["h", "k"]
    assert dict(swap.subst) == {"a": UNIT, "b": UNIT}
    assert generic_arg_env(params, swap.args) == \
        (("h", Sum(TyVar("a"), TyVar("b"))), ("k", Sum(TyVar("b"), TyVar("a"))))


def test_literal_constructor_args_are_non_generic():
    call, caller_env, params = _checked_call(load("equal.skn"), "equal-soles", "equal")
    assert generic_arg_env(params, call.args) is None


def test_generic_env_in_first_occurrence_order():
    # x is bound before y, but the call names y first: the typing, and the
    # wrapper's copies, follow the arguments, not the caller's scope
    t3 = render_type(canonical_type(3))
    src = f"""
    (defrel (r (forall a) (u : a) (v : (Sum a Unit)))
      (disj (conj (== v (left u)) (factor 1))
            (conj (=/= v (left u)) (factor 0))))
    (defrel (main (x : (Sum {t3} Unit)) (y : {t3})) (r y x))
    """
    call, caller_env, params = _checked_call(src, "main", "r")
    assert [x for x, _ in caller_env] == ["x", "y"]
    a = TyVar("a")
    assert generic_arg_env(params, call.args) == (("y", a), ("x", Sum(a, UNIT)))
    checked = check_program(parse_program(src))
    wrapped = lower_program(checked, "large-enough", BOOLEAN)
    body = wrapped.relation("main").body
    assert isinstance(body, Fresh) and body.wrap == (("y", a), ("x", Sum(a, UNIT)))
    copies = [x2 for x2, _ in body.binders]
    assert [v.name for v in body.body.g1.args] == copies
    assert [ty for _, ty in body.binders] == [canonical_type(2), Sum(canonical_type(2), UNIT)]
    for spec in (BOOLEAN, MIN_TROPICAL):
        got = fixpoint(lower_program(checked, "large-enough", spec), spec)
        want = fixpoint(lower_program(checked, "monomorphize", spec), spec)
        assert got.converged and want.converged
        assert np.array_equal(got.tables["main"].cells, want.tables["main"].cells), spec.name
