import random

import pytest

from skn import (
    BOOLEAN, Left, Pair, Prod, Right, SOLE, Sum, TyVar, UNIT, Var,
    canonical_type, check_program, count_env, lower_program,
    parse_program, smallest_large_enough, type_size,
)
from skn.typecheck import apply_subst

import gen
import oracle
import props
from eqpat import Hole, envholes, envshell, eqpat_check, holes_of, shell_of
from helpers import load

S2 = Sum(UNIT, UNIT)
A = TyVar("a")
B = TyVar("b")


# ---------------------------------------------------------------------------
# shells and holes

def test_shell_at_tyvar_is_hole():
    assert shell_of(A, Left(SOLE)) == Hole("a")


def test_shell_under_sum():
    assert shell_of(Sum(A, UNIT), Left(Right(SOLE))) == Left(Hole("a"))
    assert shell_of(Sum(A, UNIT), Left(SOLE)) == Left(Hole("a"))


def test_shell_under_prod():
    assert shell_of(Prod(A, A), Pair(SOLE, SOLE)) == Pair(Hole("a"), Hole("a"))


def test_shell_shape_mismatch():
    with pytest.raises(ValueError):
        shell_of(Prod(A, A), Left(SOLE))


def test_holes_at_own_tyvar():
    assert holes_of("a", A, Left(SOLE)) == [Left(SOLE)]


def test_holes_concatenate_in_order():
    assert holes_of("a", Prod(A, A), Pair(SOLE, Left(SOLE))) == [SOLE, Left(SOLE)]


def test_holes_other_tyvar_empty():
    assert holes_of("b", A, SOLE) == []


def test_envshell_envholes():
    delta = (("x", A),)
    assert envshell(delta, {"x": SOLE}) == {"x": Hole("a")}
    assert envholes("a", delta, {"x": SOLE}) == [SOLE]
    assert envshell((), {}) == {}
    assert envholes("a", (), {}) == []


def test_env_decomposition_mixed():
    delta = (("x", Sum(A, A)), ("y", A))
    env = {"x": Left(Right(SOLE)), "y": Left(SOLE)}
    assert envshell(delta, env) == {"x": Left(Hole("a")), "y": Hole("a")}
    assert envholes("a", delta, env) == [Right(SOLE), Left(SOLE)]


# ---------------------------------------------------------------------------
# equality patterns

DELTA = (("x", Sum(A, A)), ("y", A))


def _n(i, size):
    return oracle.type_values(canonical_type(size))[i]


def test_eqpat_shell_mismatch():
    env1 = {"x": Left(SOLE), "y": SOLE}
    env2 = {"x": Right(SOLE), "y": SOLE}
    assert not eqpat_check(DELTA, env1, env2)


def test_eqpat_hole_pattern_break():
    env1 = {"x": Left(_n(1, 2)), "y": _n(0, 2)}
    env2 = {"x": Left(_n(1, 2)), "y": _n(1, 2)}
    assert not eqpat_check(DELTA, env1, env2)


def test_eqpat_disequal_both_sides():
    env1 = {"x": Left(_n(1, 2)), "y": _n(0, 2)}
    env2 = {"x": Left(_n(0, 2)), "y": _n(1, 2)}
    assert eqpat_check(DELTA, env1, env2)


def test_eqpat_across_sizes():
    env1 = {"x": Left(_n(0, 2)), "y": _n(0, 2)}
    env2 = {"x": Left(SOLE), "y": SOLE}
    assert eqpat_check(DELTA, env1, env2)


def test_eqpat_equivalence_sampled():
    assert props.check_eqpat_equivrel(200) == 200


def test_eqpat_substitution_sampled():
    assert props.check_eqpat_substitution(200) == 200


def test_eqpat_extend_constructively():
    rng = random.Random(9)
    for _ in range(300):
        tyvars = rng.choice([["a"], ["a", "b"]])
        delta = gen.random_delta(rng, tyvars)
        sigma1 = gen.random_sigma(rng, tyvars, max_size=3)
        need = {tv: max(1, count_env(tv, delta)) for tv in tyvars}
        sigma2 = {tv: canonical_type(max(need[tv], 2)) for tv in tyvars}
        env1 = gen.random_env(delta, sigma1, rng)
        env2 = gen.eqpat_partner(delta, env1, sigma2, rng)
        assert eqpat_check(delta, env1, env2)
        # extend both environments by one more variable
        tau = gen.random_generic_type(rng, tyvars)
        for tv in tyvars:
            if tau.holes.get(tv, 0) + need[tv] > type_size(sigma2[tv]):
                break
        else:
            v1 = gen.random_value(apply_subst(sigma1, tau), rng)
            bigger = delta + (("zz", tau),)
            env2b = gen.eqpat_partner(bigger, {**env1, "zz": v1}, sigma2, rng)
            assert eqpat_check(bigger, {**env1, "zz": v1}, env2b)


def test_values_shells_holes_sampled():
    assert props.check_values_shells_holes() >= 1000


# ---------------------------------------------------------------------------
# occurrence counting and sizing

def test_count_type():
    assert Prod(A, A).holes == {"a": 2}
    assert Sum(A, A).holes == {"a": 1}
    assert UNIT.holes == {}
    assert B.holes.get("a", 0) == 0
    mixed = Prod(Sum(B, A), Prod(A, Sum(Prod(A, A), B)))
    assert mixed.holes == {"b": 2, "a": 4} and list(mixed.holes) == ["b", "a"]


def test_holes_are_the_most_holes_of_any_value():
    # `holes` against the tests' own definition: the most `holes_of` of
    # each type variable over every value of an instance of the type
    rng = random.Random(0)
    checks = 0
    for _ in range(500):
        tyvars = rng.choice([["a"], ["a", "b"]])
        t = gen.random_generic_type(rng, tyvars, depth=3)
        sigma = {tv: canonical_type(rng.randint(1, 3)) for tv in tyvars}
        values = oracle.type_values(apply_subst(sigma, t))
        for tv in tyvars:
            most = max(len(holes_of(tv, t, v)) for v in values)
            assert most == t.holes.get(tv, 0), (t, tv)
            checks += most > 0
    assert checks >= 500


def test_count_env_sums():
    assert count_env("a", (("x", Prod(A, A)), ("y", A))) == 3


def test_count_relation_sum_swap():
    p = parse_program(load("sum-swap.skn"))
    rel = p.relation("sum-swap")
    assert smallest_large_enough(rel) == {"a": 3, "b": 3}


def test_count_relation_two_valued():
    p = parse_program(load("two-valued.skn"))
    assert smallest_large_enough(p.relation("two-valued"))["a"] == 2


def test_count_relation_equal():
    p = parse_program(load("equal.skn"))
    assert smallest_large_enough(p.relation("equal"))["a"] == 2


def test_count_monotone_under_fresh():
    # a fresh-bound occurrence raises the leaf-goal count
    p = parse_program(load("two-valued.skn"))
    rel = p.relation("two-valued")
    assert smallest_large_enough(rel)["a"] > count_env("a", rel.params)


def test_canonical_types():
    assert canonical_type(1) == UNIT
    assert canonical_type(2) == S2
    assert canonical_type(4) == Sum(UNIT, Sum(UNIT, Sum(UNIT, UNIT)))
    for n in range(1, 9):
        assert type_size(canonical_type(n)) == n
    with pytest.raises(ValueError):
        canonical_type(0)


def test_smallest_large_enough():
    p = parse_program(load("sum-swap.skn"))
    assert smallest_large_enough(p.relation("sum-swap")) == {"a": 3, "b": 3}
    p = parse_program(load("two-valued.skn"))
    assert smallest_large_enough(p.relation("two-valued")) == {"a": 2}
    p = parse_program(load("equal.skn"))
    assert smallest_large_enough(p.relation("equal")) == {"a": 2}


def test_large_enough_floor_is_one():
    # a tyvar that never reaches the environment still gets an inhabited type
    p = parse_program("(defrel (r (x : (Sum a Unit))) (== x x))")
    rel = p.relation("r")
    assert smallest_large_enough(rel) == {"a": 1}


# ---------------------------------------------------------------------------
# instantiation

def test_lowered_equal_instance_at_unit():
    p = check_program(parse_program(load("equal.skn")))
    for mode in ("monomorphize", "large-enough"):
        inst = lower_program(p, mode, BOOLEAN).relation("equal$1")
        assert inst.tyvars == ()
        assert inst.params == (("x", UNIT), ("y", UNIT))
        assert inst.body.ty == UNIT


def test_monomorphic_relation_lowers_to_its_own_body():
    p = check_program(parse_program(load("coin-flip.skn")))
    rel = p.relations[0]
    for mode in ("monomorphize", "large-enough"):
        assert lower_program(p, mode, BOOLEAN).relation(rel.name) == rel
