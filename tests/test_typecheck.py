import pytest

from skn import (
    Left, Pair, Prod, Right, SOLE, Sum, TyVar, UNIT, Var, check_program,
    check_type_valid, generic_arg_env, infer_call_subst, parse_program,
    type_of_value,
)
from skn.typecheck import NonGenericCall, TypeCheckError, TypeEnv

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

def test_subst_equal_units():
    sigma = infer_call_subst((("a",), (TyVar("a"), TyVar("a"))), (UNIT, UNIT))
    assert sigma == {"a": UNIT}


def test_subst_conflict():
    with pytest.raises(TypeCheckError):
        infer_call_subst((("a",), (TyVar("a"), TyVar("a"))), (UNIT, S2))


def test_subst_empty():
    assert infer_call_subst(((), ()), ()) == {}


def test_subst_structural():
    sigma = infer_call_subst(
        (("a", "b"), (Sum(TyVar("a"), TyVar("b")),)), (Sum(UNIT, S2),))
    assert sigma == {"a": UNIT, "b": S2}
    with pytest.raises(TypeCheckError):
        infer_call_subst((("a",), (Sum(TyVar("a"), UNIT),)), (Prod(UNIT, UNIT),))


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
# generic argument environments

def _checked_call(src, relname, callee):
    p = check_program(parse_program(src))
    rel = p.relation(relname)
    calls = [c for c in _collect_calls(rel.body) if c.rel == callee]
    caller_env = TypeEnv(rel.params, frozenset(rel.tyvars))
    return calls[0], caller_env


def test_generic_env_sum_swap():
    call, caller_env = _checked_call(load("sum-swap.skn"), "sum-swap-3-3", "sum-swap")
    ge = generic_arg_env(call, caller_env)
    assert ge == (("x", Sum(TyVar("a"), TyVar("b"))),
                  ("y", Sum(TyVar("b"), TyVar("a"))))


def test_generic_env_single_occurrence():
    src = """
    (defrel (equal (x : a) (y : a)) (== x y))
    (defrel (main (w : Unit)) (equal w w))
    """
    call, caller_env = _checked_call(src, "main", "equal")
    assert generic_arg_env(call, caller_env) == (("w", TyVar("a")),)
    assert dict(call.info.subst) == {"a": UNIT}


def test_non_generic_conflicting_positions():
    # w sits at a generic position and at a concrete one of the same size
    src = """
    (defrel (r (x : a) (y : (Sum Unit Unit))) (== y y))
    (defrel (main (w : (Sum Unit Unit))) (r w w))
    """
    call, caller_env = _checked_call(src, "main", "r")
    with pytest.raises(NonGenericCall):
        generic_arg_env(call, caller_env)
    assert call.info.generic_env is None  # recorded as a fallback


def test_generic_env_concrete_var_kept():
    src = """
    (defrel (r (x : a) (y : (Sum Unit Unit))) (== y y))
    (defrel (main (w : Unit) (u : (Sum Unit Unit))) (r w u))
    """
    call, caller_env = _checked_call(src, "main", "r")
    assert generic_arg_env(call, caller_env) == \
        (("w", TyVar("a")), ("u", S2))


def test_polymorphic_caller_passes_own_tyvar():
    src = """
    (defrel (equal (x : a) (y : a)) (== x y))
    (defrel (outer (p : b) (q : b)) (equal p q))
    """
    call, caller_env = _checked_call(src, "outer", "equal")
    assert dict(call.info.subst) == {"a": TyVar("b")}


def test_generic_env_through_fresh_scope():
    # the (sum-swap h k) call under fresh-bound h, k of two-value type
    p = check_program(parse_program(load("option-map.skn")))
    calls = _collect_calls(p.relation("option-map-example").body)
    swap = next(c for c in calls if c.rel == "sum-swap")
    assert dict(swap.info.subst) == {"a": UNIT, "b": UNIT}
    assert swap.info.generic_env == (("h", Sum(TyVar("a"), TyVar("b"))),
                                     ("k", Sum(TyVar("b"), TyVar("a"))))


def test_literal_constructor_args_are_non_generic():
    p = check_program(parse_program(load("equal.skn")))
    calls = _collect_calls(p.relation("equal-soles").body)
    assert calls[0].info.generic_env is None
