"""Brute-force reference evaluator used as a differential oracle.

Deliberately independent of the production engine: types are enumerated
with local recursion, a value's table position is looked up in a map
from each value of that enumeration to its place in it (no index
arithmetic), goals are evaluated cell by cell with Python loops, and
fresh sums with an explicit loop.  Each concrete type is enumerated, and
its map built, once.
"""
import functools
import math

from skn.syntax import (
    Call, Conj, Disj, Disunify, Factor, Facts, Fresh, Left, Pair, Prod, Right,
    Sole, Sum, Unify, Unit, Var,
)


def ops(name):
    if name == "boolean":
        return False, True, lambda a, b: a or b, lambda a, b: a and b
    if name == "real":
        return 0.0, 1.0, lambda a, b: a + b, lambda a, b: a * b
    if name == "min-tropical":
        return math.inf, 0.0, min, lambda a, b: a + b
    raise ValueError(name)


@functools.cache
def _listing(t):
    """A concrete type's values in order, and a map from each to its place."""
    if isinstance(t, Unit):
        values = [Sole()]
    elif isinstance(t, Sum):
        values = [Left(v) for v in type_values(t.left)] + \
                 [Right(v) for v in type_values(t.right)]
    elif isinstance(t, Prod):
        values = [Pair(a, b) for a in type_values(t.first) for b in type_values(t.second)]
    else:
        raise ValueError(f"not a concrete type: {t!r}")
    return tuple(values), {v: place for place, v in enumerate(values)}


def type_values(t):
    return _listing(t)[0]


def strip(v):
    if isinstance(v, Left):
        return Left(strip(v.inner), None)
    if isinstance(v, Right):
        return Right(strip(v.inner), None)
    if isinstance(v, Pair):
        return Pair(strip(v.first), strip(v.second))
    return v


def substitute(v, env):
    if isinstance(v, Var):
        return env[v.name]
    if isinstance(v, Left):
        return Left(substitute(v.inner, env), None)
    if isinstance(v, Right):
        return Right(substitute(v.inner, env), None)
    if isinstance(v, Pair):
        return Pair(substitute(v.first, env), substitute(v.second, env))
    return v


def position(value, t):
    return _listing(t)[1][strip(value)]


def goal_weight(goal, gamma, env, sr_name, param_types, weight_of_literal):
    """Weight of one goal under one assignment; `gamma` maps relation
    names to numpy tables read at positions found by linear search."""
    zero, one, add, mul = ops(sr_name)

    def bind(g, i, env):
        """Sum `g`'s body over the values of its binders from the `i`th on."""
        if i == len(g.binders):
            return go(g.body, env)
        x, ty = g.binders[i]
        total = zero
        for v in type_values(ty):
            total = add(total, bind(g, i + 1, {**env, x: v}))
        return total

    def go(g, env):
        if isinstance(g, Conj):
            return mul(go(g.g1, env), go(g.g2, env))
        if isinstance(g, Disj):
            return add(go(g.g1, env), go(g.g2, env))
        if isinstance(g, Fresh):
            return bind(g, 0, env)
        if isinstance(g, Unify):
            return one if substitute(g.v1, env) == substitute(g.v2, env) else zero
        if isinstance(g, Disunify):
            return one if substitute(g.v1, env) != substitute(g.v2, env) else zero
        if isinstance(g, Call):
            pos = tuple(position(substitute(a, env), ty)
                        for a, ty in zip(g.args, param_types[g.rel]))
            w = gamma[g.rel][pos]
            return bool(w) if sr_name == "boolean" else float(w)
        if isinstance(g, Factor):
            return weight_of_literal(g.literal)
        if isinstance(g, Facts):  # through its disjuncts, as read
            return go(g.disj, env)
        raise TypeError(g)

    return go(goal, env)


def relation_cells(rel, gamma, sr_name, param_types, weight_of_literal):
    """Every cell of one relation's table, keyed by argument positions."""
    import itertools
    domains = [type_values(ty) for _, ty in rel.params]
    out = {}
    for combo in itertools.product(*[range(len(d)) for d in domains]):
        env = {name: domains[k][i]
               for k, (i, (name, _)) in enumerate(zip(combo, rel.params))}
        out[combo] = goal_weight(rel.body, gamma, env, sr_name,
                                 param_types, weight_of_literal)
    return out
