"""Property-suite drivers.

Each function checks one family of laws and returns the number of cases
it verified, raising AssertionError with context on the first violation.
The module test files run them at reduced volume for fast feedback; the
acceptance suite runs them at full volume.
"""
import itertools
import math
import random

import numpy as np

from skn import (
    BOOLEAN, MIN_TROPICAL, Program, RelationDef, Unify, Var, check_program,
    eval_relation, fixpoint, lower_program, parse_program, type_size,
)
from skn.eval import compile_relation
from skn.poly import _NameSupply, enforce_eqpat_codegen
from skn.syntax import Prod, Sum, TyVar, UNIT, render_type
from skn.typecheck import apply_subst

import gen
import oracle
from eqpat import eqpat_check, holes_of, shell_of


# ---------------------------------------------------------------------------
# semiring axioms

def _samples(spec, rng, n):
    if spec.name == "boolean":
        return [False, True]
    if spec.name == "real":
        return [0.0, 1.0] + [rng.uniform(-10, 10) for _ in range(n)]
    # min-tropical: sampled from a lattice where float addition is exact
    pool = [float(k) for k in range(-8, 9)] + [math.inf]
    return [rng.choice(pool) for _ in range(n)] + [0.0, math.inf]


def _close(spec, a, b):
    if spec.name == "real":
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isinf(a) and math.isinf(b) and a == b)


def check_semiring_axioms(spec, n_triples=1000, seed=0):
    rng = random.Random(seed)
    elems = _samples(spec, rng, max(16, int(round(n_triples ** (1 / 3)) + 2)))
    if spec.name == "boolean":
        triples = list(itertools.product(elems, repeat=3))  # exhaustive
    else:
        triples = [(rng.choice(elems), rng.choice(elems), rng.choice(elems))
                   for _ in range(n_triples)]
    add, mul, zero, one = spec.add, spec.mul, spec.zero, spec.one
    idempotent = True
    for a, b, c in triples:
        assert _close(spec, add(a, b), add(b, a)), (spec.name, "add comm", a, b)
        assert _close(spec, mul(a, b), mul(b, a)), (spec.name, "mul comm", a, b)
        assert _close(spec, add(add(a, b), c), add(a, add(b, c))), \
            (spec.name, "add assoc", a, b, c)
        assert _close(spec, mul(mul(a, b), c), mul(a, mul(b, c))), \
            (spec.name, "mul assoc", a, b, c)
        assert _close(spec, mul(a, add(b, c)), add(mul(a, b), mul(a, c))), \
            (spec.name, "distributivity", a, b, c)
        assert _close(spec, add(a, zero), a), (spec.name, "add identity", a)
        assert _close(spec, mul(a, one), a), (spec.name, "mul identity", a)
        assert _close(spec, mul(a, zero), zero), (spec.name, "annihilator", a)
        idempotent = idempotent and _close(spec, add(a, a), a)
    assert idempotent == spec.idempotent_add, spec.name
    return len(triples)


# ---------------------------------------------------------------------------
# the engine's index agrees with value enumeration

def unify_hot_cells(v, t):
    """The cells the engine sets in the table of `x == v` over `x : t`."""
    rel = RelationDef("at", (), (("x", t),), Unify(Var("x"), v, t))
    cells = eval_relation(compile_relation(rel, {}, BOOLEAN), {}, BOOLEAN).cells
    assert cells.shape == (type_size(t),), render_type(t)
    return np.flatnonzero(cells).tolist()


def check_index_bijection(min_cases=1000, seed=0):
    """For the value v at position i of `oracle.type_values(t)`, the engine's
    table of `x == v` is one-hot at i."""
    rng = random.Random(seed)
    cases = 0
    while cases < min_cases:
        t = _random_sized_type(rng, 64)
        for i, v in enumerate(oracle.type_values(t)):
            assert unify_hot_cells(v, t) == [i], (render_type(t), i)
            cases += 1
    return cases


def _random_sized_type(rng, max_size):
    while True:
        t = _random_type_tree(rng, depth=rng.randint(0, 4))
        if type_size(t) <= max_size:
            return t


def _random_type_tree(rng, depth):
    if depth == 0:
        return UNIT
    pick = rng.random()
    if pick < 0.34:
        return UNIT
    ctor = Sum if pick < 0.67 else Prod
    return ctor(_random_type_tree(rng, depth - 1), _random_type_tree(rng, depth - 1))


# ---------------------------------------------------------------------------
# values <-> shells + holes

def check_values_shells_holes():
    """v1 == v2 iff their shells agree and every hole list agrees;
    exhaustive over a family of (generic type, substitution) pairs."""
    four = Sum(UNIT, Sum(UNIT, Sum(UNIT, UNIT)))
    families = [
        (TyVar("a"), {"a": gen.CONCRETE_TYPES[3]}),
        (Sum(TyVar("a"), Prod(TyVar("a"), TyVar("b"))),
         {"a": Sum(UNIT, UNIT), "b": Sum(UNIT, UNIT)}),
        (Prod(TyVar("a"), TyVar("a")), {"a": four}),
        (Sum(Prod(TyVar("a"), TyVar("b")), TyVar("b")),
         {"a": Sum(UNIT, UNIT), "b": Sum(UNIT, Sum(UNIT, UNIT))}),
        (Prod(Sum(UNIT, TyVar("a")), TyVar("a")), {"a": Sum(UNIT, UNIT)}),
        (Prod(TyVar("a"), TyVar("b")), {"a": four, "b": four}),
        (Sum(TyVar("a"), TyVar("a")), {"a": four}),
        (Prod(Prod(TyVar("a"), UNIT), TyVar("b")), {"a": four, "b": four}),
        (Sum(TyVar("a"), TyVar("b")), {"a": four, "b": four}),
    ]
    cases = 0
    for tau, sigma_map in families:
        tyvars = sorted({tv for tv in gen._tyvars_of(tau)})
        sigma = {tv: sigma_map[tv] for tv in tyvars}
        values = oracle.type_values(apply_subst(sigma, tau))
        assert len(values) ** 2 <= 256 * 16
        for v1 in values:
            for v2 in values:
                decomposed_equal = (
                    shell_of(tau, v1) == shell_of(tau, v2)
                    and all(holes_of(a, tau, v1) == holes_of(a, tau, v2)
                            for a in tyvars)
                )
                assert (v1 == v2) == decomposed_equal, (render_type(tau), v1, v2)
                cases += 1
    return cases


# ---------------------------------------------------------------------------
# equality-pattern relations

def _random_related_pair(rng):
    tyvars = rng.choice([["a"], ["a", "b"]])
    delta = gen.random_delta(rng, tyvars)
    sigma1 = gen.random_sigma(rng, tyvars, max_size=3)
    need = {tv: max(1, sum(_holes_in(ty, tv) for _, ty in delta)) for tv in tyvars}
    sigma2 = {tv: _sized_canonical(max(need[tv], rng.randint(1, 4))) for tv in tyvars}
    env1 = gen.random_env(delta, sigma1, rng)
    env2 = gen.eqpat_partner(delta, env1, sigma2, rng)
    return delta, sigma1, sigma2, env1, env2


def _holes_in(ty, tv):
    return ty.holes.get(tv, 0)


def _sized_canonical(n):
    from skn.poly import canonical_type
    return canonical_type(n)


def check_eqpat_equivrel(n_cases=1000, seed=1):
    rng = random.Random(seed)
    cases = 0
    while cases < n_cases:
        tyvars = rng.choice([["a"], ["a", "b"]])
        delta = gen.random_delta(rng, tyvars)
        sigmas = [gen.random_sigma(rng, tyvars, max_size=3) for _ in range(3)]
        envs = []
        base = gen.random_env(delta, sigmas[0], rng)
        envs.append(base)
        for k in (1, 2):
            if rng.random() < 0.6:
                need = {tv: max(1, sum(_holes_in(ty, tv) for _, ty in delta))
                        for tv in tyvars}
                sig = {tv: _sized_canonical(max(need[tv], 2)) for tv in tyvars}
                envs.append(gen.eqpat_partner(delta, base, sig, rng))
            else:
                envs.append(gen.random_env(delta, sigmas[k], rng))
        e1, e2, e3 = envs
        assert eqpat_check(delta, e1, e1), "reflexive"
        assert eqpat_check(delta, e1, e2) == eqpat_check(delta, e2, e1), "symmetric"
        if eqpat_check(delta, e1, e2) and eqpat_check(delta, e2, e3):
            assert eqpat_check(delta, e1, e3), "transitive"
        cases += 1
    return cases


def check_eqpat_substitution(n_cases=1000, seed=2):
    """Related environments make the same values equal: substituting two
    value expressions is equality-preserving across the pair."""
    rng = random.Random(seed)
    cases = 0
    while cases < n_cases:
        delta, sigma1, sigma2, env1, env2 = _random_related_pair(rng)
        assert eqpat_check(delta, env1, env2)
        tau, v1, v2 = _two_values_at_common_type(rng, delta)
        if tau is None:
            continue
        s1 = {x: v for x, v in env1.items()}
        s2 = {x: v for x, v in env2.items()}
        lhs = oracle.substitute(v1, s1) == oracle.substitute(v2, s1)
        rhs = oracle.substitute(v1, s2) == oracle.substitute(v2, s2)
        assert lhs == rhs, (delta, env1, env2, v1, v2)
        cases += 1
    return cases


def _two_values_at_common_type(rng, delta):
    from skn.syntax import Left, Pair, Right, SOLE, Var

    def value_at(ty, depth=2):
        exact = [x for x, t in delta if t == ty]
        if exact and (depth == 0 or rng.random() < 0.5):
            return Var(rng.choice(exact))
        if isinstance(ty, TyVar):
            return Var(rng.choice(exact)) if exact else None
        if isinstance(ty, Sum):
            side = rng.random() < 0.5
            inner = value_at(ty.left if side else ty.right, depth - 1)
            if inner is None:
                return None
            return Left(inner, ty) if side else Right(inner, ty)
        if isinstance(ty, Prod):
            a = value_at(ty.first, depth - 1)
            b = value_at(ty.second, depth - 1)
            return Pair(a, b) if a is not None and b is not None else None
        return SOLE

    x, base = delta[rng.randrange(len(delta))]
    tau = base
    if rng.random() < 0.4:
        tau = rng.choice([Sum(base, UNIT), Prod(base, base), Sum(UNIT, base)])
    a, b = value_at(tau), value_at(tau)
    if a is None or b is None:
        return None, None, None
    return tau, a, b


# ---------------------------------------------------------------------------
# generated equality-pattern goals agree with the checker

def check_enforce_eqpat():
    """Exhaustive: over every pair of environments in small grids, the
    generated goal has weight one exactly when the checker relates them."""
    families = [
        # (delta, sigma1 sizes, sigma2 sizes)
        ((("x", TyVar("a")),), {"a": 2}, {"a": 2}),
        ((("x", TyVar("a")), ("y", TyVar("a"))), {"a": 2}, {"a": 3}),
        ((("x", TyVar("a")), ("y", TyVar("a"))), {"a": 3}, {"a": 3}),
        ((("x", Sum(TyVar("a"), TyVar("a"))), ("y", TyVar("a"))), {"a": 2}, {"a": 2}),
        ((("x", Sum(TyVar("a"), TyVar("a"))), ("y", TyVar("a"))), {"a": 3}, {"a": 3}),
        ((("x", Prod(TyVar("a"), TyVar("a"))),), {"a": 2}, {"a": 3}),
        ((("x", Prod(TyVar("a"), TyVar("a"))), ("y", TyVar("a"))), {"a": 2}, {"a": 2}),
        ((("x", Prod(TyVar("a"), TyVar("a"))), ("y", TyVar("a"))), {"a": 2}, {"a": 3}),
        ((("x", Sum(UNIT, TyVar("a"))), ("y", Prod(TyVar("a"), UNIT))), {"a": 2}, {"a": 2}),
        ((("x", Sum(TyVar("a"), TyVar("b"))), ("y", TyVar("b"))), {"a": 2, "b": 2}, {"a": 2, "b": 2}),
        ((("x", Prod(TyVar("a"), TyVar("b"))), ("y", TyVar("b"))), {"a": 2, "b": 2}, {"a": 2, "b": 2}),
        ((("x", TyVar("a")), ("y", TyVar("a")), ("z", TyVar("a"))), {"a": 2}, {"a": 2}),
        ((("x", Sum(TyVar("a"), Prod(TyVar("a"), TyVar("a")))),), {"a": 2}, {"a": 2}),
    ]
    cases = 0
    for delta, sizes1, sizes2 in families:
        sigma1 = {tv: _sized_canonical(n) for tv, n in sizes1.items()}
        sigma2 = {tv: _sized_canonical(n) for tv, n in sizes2.items()}
        vars1 = {x: f"{x}1" for x, _ in delta}
        vars2 = {x: f"{x}2" for x, _ in delta}
        params = tuple((vars1[x], apply_subst(sigma1, ty)) for x, ty in delta) + \
                 tuple((vars2[x], apply_subst(sigma2, ty)) for x, ty in delta)
        supply = _NameSupply({n for n, _ in params})
        goal = enforce_eqpat_codegen(delta, vars1, vars2, sigma1, sigma2, supply)
        rel = RelationDef("eqtest", (), params, goal)
        program = check_program(Program((rel,)))
        table = eval_relation(compile_relation(program.relations[0], {}, BOOLEAN), {}, BOOLEAN)
        assert table.cells.size <= 4096
        k = len(delta)
        values1 = [oracle.type_values(apply_subst(sigma1, ty)) for _, ty in delta]
        values2 = [oracle.type_values(apply_subst(sigma2, ty)) for _, ty in delta]
        for idx in np.ndindex(*table.cells.shape):
            env1 = {x: vs[i] for i, (x, _), vs in zip(idx[:k], delta, values1)}
            env2 = {x: vs[i] for i, (x, _), vs in zip(idx[k:], delta, values2)}
            expected = eqpat_check(delta, env1, env2)
            got = bool(table.cells[idx])
            assert got == expected, (delta, idx, env1, env2)
            cases += 1
    return cases


# ---------------------------------------------------------------------------
# factor-free, call-free goals only weigh zero or one

def check_no_factor_weight(n_goals=500, seed=3):
    rng = random.Random(seed)
    cases = 0
    for _ in range(n_goals):
        b = gen._ProgramBuilder(rng, max_goal_depth=4)
        params = [(f"p{i}", gen.random_concrete_type(rng)) for i in range(rng.randint(1, 2))]
        b._self_arity = len(params)
        goal_text = _no_factor_goal(b, 4, list(params))
        sig = " ".join(f"({x} : {render_type(ty)})" for x, ty in params)
        src = f"(defrel (g {sig}) {goal_text})"
        program = check_program(parse_program(src))
        for spec in (BOOLEAN, MIN_TROPICAL):
            table = eval_relation(compile_relation(program.relations[0], {}, spec), {}, spec)
            ok = np.isin(table.cells, [spec.zero, spec.one])
            assert ok.all(), (src, spec.name)
            cases += 1
    return cases


def _no_factor_goal(b, depth, env):
    rng = b.rng
    while True:
        g = b.gen_goal(depth, env, [], None)
        if "factor" not in g and "(g " not in g:
            return g


# ---------------------------------------------------------------------------
# boolean fixpoint monotonicity

def check_boolean_monotonicity(sources, min_cases=1000):
    checked = [0]

    def watch(_it, old, new):
        for name in new:
            o, n = old[name].cells, new[name].cells
            assert not np.any(o & ~n), f"{name}: a true cell became false"
            checked[0] += o.size

    for src in sources:
        lowered = lower_program(check_program(parse_program(src)),
                                "monomorphize", BOOLEAN)
        fixpoint(lowered, BOOLEAN, on_round=watch)
    assert checked[0] >= min_cases, checked[0]
    return checked[0]
