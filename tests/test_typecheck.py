import io

import pytest

from skn import (
    BOOLEAN, Call, Left, Pair, Prod, Right, SOLE, Sum, TyVar, UNIT, Var,
    check_program, check_type_valid, generic_arg_env, lower_program,
    parse_program, type_of_value,
)
from skn.cli import RunConfig, run
from skn.poly import NonGenericCall
from skn.syntax import walk_goal
from skn.typecheck import TypeCheckError, TypeEnv

from helpers import CORPUS, load


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


# ---------------------------------------------------------------------------
# call substitution inference

def _call_subst(src):
    """The substitution recorded on the one call in `main`."""
    (call,) = _collect_calls(check_program(parse_program(src)).relation("main").body)
    return dict(call.info.subst)


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
    assert dict(om.info.subst) == {"a": S2, "b": S2}


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
    assert dict(om.info.subst) == {"a": S2, "b": S2}


# ---------------------------------------------------------------------------
# generic argument environments, which the large-enough call rewrite in
# `poly` computes from a checked call and the caller's scope at it

def _checked_call(src, relname, callee):
    """The first call to `callee` in the checked `relname`, the caller's
    scope at it (parameters, then fresh binders) and the callee's
    parameter types."""
    p = check_program(parse_program(src))
    rel = p.relation(relname)
    call, binders = next((h, binders) for h, binders, entering in walk_goal(rel.body)
                         if entering and isinstance(h, Call) and h.rel == callee)
    return call, rel.params + binders, tuple(ty for _, ty in p.relation(callee).params)


def test_generic_env_sum_swap():
    call, caller_env, params = _checked_call(load("sum-swap.skn"), "sum-swap-3-3", "sum-swap")
    ge = generic_arg_env(params, dict(call.info.subst), call.args, caller_env)
    assert ge == (("x", Sum(TyVar("a"), TyVar("b"))),
                  ("y", Sum(TyVar("b"), TyVar("a"))))


def test_generic_env_single_occurrence():
    src = """
    (defrel (equal (x : a) (y : a)) (== x y))
    (defrel (main (w : Unit)) (equal w w))
    """
    call, caller_env, params = _checked_call(src, "main", "equal")
    assert generic_arg_env(params, dict(call.info.subst), call.args, caller_env) == \
        (("w", TyVar("a")),)
    assert dict(call.info.subst) == {"a": UNIT}


def test_non_generic_conflicting_positions():
    # w sits at a generic position and at a concrete one of the same size
    src = """
    (defrel (r (x : a) (y : (Sum Unit Unit))) (== y y))
    (defrel (main (w : (Sum Unit Unit))) (r w w))
    """
    call, caller_env, params = _checked_call(src, "main", "r")
    with pytest.raises(NonGenericCall):
        generic_arg_env(params, dict(call.info.subst), call.args, caller_env)
    notes = []  # recorded as a fallback
    lower_program(check_program(parse_program(src)), "large-enough", BOOLEAN, notes)
    assert notes == ["r: non-generic call, monomorphized"]


def test_generic_env_concrete_var_kept():
    src = """
    (defrel (r (x : a) (y : (Sum Unit Unit))) (== y y))
    (defrel (main (w : Unit) (u : (Sum Unit Unit))) (r w u))
    """
    call, caller_env, params = _checked_call(src, "main", "r")
    assert generic_arg_env(params, dict(call.info.subst), call.args, caller_env) == \
        (("w", TyVar("a")), ("u", S2))


def test_polymorphic_caller_passes_own_tyvar():
    src = """
    (defrel (equal (x : a) (y : a)) (== x y))
    (defrel (outer (p : b) (q : b)) (equal p q))
    """
    call, caller_env, params = _checked_call(src, "outer", "equal")
    assert dict(call.info.subst) == {"a": TyVar("b")}


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
    assert dict(swap.info.subst) == {"a": UNIT, "b": UNIT}
    assert generic_arg_env(params, dict(swap.info.subst), swap.args, caller_env) == \
        (("h", Sum(TyVar("a"), TyVar("b"))), ("k", Sum(TyVar("b"), TyVar("a"))))


def test_literal_constructor_args_are_non_generic():
    call, caller_env, params = _checked_call(load("equal.skn"), "equal-soles", "equal")
    with pytest.raises(NonGenericCall):
        generic_arg_env(params, dict(call.info.subst), call.args, caller_env)
