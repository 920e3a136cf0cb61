"""Typing judgements for values, goals, relations, and programs.

Checking keeps every value as written.  It records type facts in two
places only: every ``==``/``=/=`` records its common argument type, and
every relation call records its inferred type-variable substitution.
One `syntax.map_goal` pass checks each leaf under the relation's
parameters and the fresh binders around it, which the pass keeps in one
dict as it enters and leaves each fresh: a leaf's scope costs no copy and
a lookup no scan of the binders, however deep the freshes nest.  The
reader makes a repeated value form one node, and an ``==``/``=/=``
operand outside every fresh is checked once per node and type in a
relation; under a fresh each occurrence is checked, as its binders may
give one node's variables other types there.  A fact table is checked
per distinct pin, as its ``==``s would be, and kept as read, untyped.

A call's substitution is one binding of the callee's type variables,
built by one-way matching (not unification) of each declared parameter
type against its argument's type, which the caller's context fixes.  An
argument is checked against its parameter type under the binding once the
binding covers that parameter's type variables; until then it must be
inferable alone.  A relation header must mention each of its type
variables in some parameter type, or calls could never determine it.

Values are checked, and parameter types matched, down a type through
`syntax.along` alone: `type_of_value` checks each leaf, annotated
constructor and misfit node it yields against its part of the type, and
`match_type` binds each pattern variable it yields to its part and
requires any other node to be its part.
"""
from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .syntax import (
    Binders, Call, Disunify, Facts, Goal, Left, Pair, Prod, Program, RelationDef,
    Right, Sole, Sum, TyVar, TypeExpr, Unify, UNIT, ValueExpr, Var, along,
    fold, free_type_vars, map_goal, render_type, render_value_expr,
)


class TypeCheckError(Exception):
    pass


class UninferableValue(TypeCheckError):
    """A bare left/right whose sum type cannot be determined here."""


class TypeEnv(NamedTuple):
    vars: Binders = ()  # a relation's parameters
    tyvars: frozenset = frozenset()
    fresh: Mapping[str, TypeExpr] = MappingProxyType({})  # the fresh binders around, by name

    def lookup(self, name: str) -> TypeExpr:
        for x, ty in self.vars:
            if x == name:
                return ty
        ty = self.fresh.get(name)
        if ty is None:
            raise TypeCheckError(f"unbound variable {name!r}")
        return ty


RelEnv = dict  # name -> RelationDef


# ---------------------------------------------------------------------------
# substitutions and matching

def apply_subst(subst: dict[str, TypeExpr], t: TypeExpr) -> TypeExpr:
    if t.size is not None:  # ground: no type variable to replace
        return t
    return fold(t, lambda u: subst.get(u.name, u) if isinstance(u, TyVar) else u,
                lambda u, a, b: type(u)(a, b))


def match_type(pattern: TypeExpr, actual: TypeExpr, binding: dict[str, TypeExpr],
               tyvars: frozenset) -> None:
    """Extend `binding` so that the substitution maps `pattern` onto `actual`.

    Only variables in `tyvars` are pattern variables; anything else must
    match structurally.  Of `along`, each pattern variable binds its part,
    and each other node it yields (a leaf, or a node `actual` does not
    follow) must be that part itself, as types are interned.
    """
    for p, a in along(pattern, actual):
        if isinstance(p, TyVar) and p.name in tyvars:
            if binding.setdefault(p.name, a) != a:
                raise TypeCheckError(f"type variable {p.name} matched to both "
                                     f"{render_type(binding[p.name])} and {render_type(a)}")
        elif p is not a:
            raise TypeCheckError(f"cannot match {render_type(p)} against {render_type(a)}")


# ---------------------------------------------------------------------------
# type validity and value typing

def check_type_valid(env: TypeEnv, t: TypeExpr) -> TypeExpr:
    """`t`, once each of its type variables is checked to be in scope."""
    for name in free_type_vars(t):
        if name not in env.tyvars:
            raise TypeCheckError(f"unbound type variable {name}")
    return t


def type_of_value(env: TypeEnv, v: ValueExpr,
                  expected: Optional[TypeExpr] = None) -> TypeExpr:
    """The type of a value: `expected`, once `v` is checked against it.

    Without `expected`, a variable has its type, a pair its parts' inferred
    types, and sole or an annotated left/right the type it is then checked
    against; a bare left/right is uninferable.  Of `along`, each leaf,
    annotated constructor and node whose part lacks its shape is checked
    against its part, and an annotation must be that part.
    """
    if expected is None:
        match v:
            case Var(name):
                return env.lookup(name)
            case Pair(a, b):
                return Prod(type_of_value(env, a), type_of_value(env, b))
            case Left(_, None) | Right(_, None):
                raise UninferableValue(
                    f"cannot infer the sum type of {render_value_expr(v)}; annotate it")
        expected = getattr(v, "annot", UNIT)  # a left/right's annotation, or sole's type
    for u, t in along(v, expected):
        match u:
            case Sole() if t != UNIT:
                raise TypeCheckError(f"sole has type Unit, expected {render_type(t)}")
            case Var(name) if (ty := env.lookup(name)) != t:
                raise TypeCheckError(f"{name} has type {render_type(ty)}, "
                                     f"expected {render_type(t)}")
            case Left(_, annot) | Right(_, annot):
                if annot is not None and check_type_valid(env, annot) != t:
                    raise TypeCheckError(f"annotation {render_type(annot)} does not match "
                                         f"expected {render_type(t)}")
                if not isinstance(t, Sum):
                    raise TypeCheckError(f"{type(u).__name__.lower()} constructor needs a Sum "
                                         f"type, got {render_type(t)}")
            case Pair():
                raise TypeCheckError(f"pair value cannot have type {render_type(t)}")
    return expected


# ---------------------------------------------------------------------------
# goal / relation / program checking

def _check_call(relenv: RelEnv, env: TypeEnv, g: Call) -> Call:
    if g.rel not in relenv:
        raise TypeCheckError(f"call to undefined relation {g.rel!r}")
    callee = relenv[g.rel]
    params = tuple(ty for _, ty in callee.params)
    if len(params) != len(g.args):
        raise TypeCheckError(f"{g.rel} takes {len(params)} arguments, got {len(g.args)}")

    # `binding` maps callee type variables to caller types.  The patterns
    # hold only callee type variables and `apply_subst` is simultaneous,
    # so a caller type variable that shares a callee one's name is never
    # rewritten.
    tyvars = frozenset(callee.tyvars)
    binding: dict[str, TypeExpr] = {}
    pending = set(range(len(g.args)))
    progress = True
    while pending and progress:
        progress = False
        for i in sorted(pending):
            bound = tyvars.intersection(free_type_vars(params[i])) <= binding.keys()
            try:
                ty = type_of_value(env, g.args[i],
                                   apply_subst(binding, params[i]) if bound else None)
            except UninferableValue:
                continue
            if not bound:  # else `ty` is that parameter type, which matches already
                match_type(params[i], ty, binding, tyvars)
            pending.discard(i)
            progress = True
    if pending:
        raise TypeCheckError(f"cannot determine the type of argument {min(pending) + 1} in "
                             f"call to {g.rel}; annotate its sum constructors")
    for tv in callee.tyvars:
        if tv not in binding:
            raise TypeCheckError(f"type variable {tv} is unconstrained by the arguments")
    return Call(g.rel, g.args, tuple((tv, binding[tv]) for tv in callee.tyvars))


def check_goal(relenv: RelEnv, env: TypeEnv, g: Goal) -> Goal:
    """`g` checked under `env`.  An ``==``/``=/=`` operand outside every
    fresh is walked once per node and type; under a fresh, every time.  A
    fact table checks each distinct (variable, value node, side) of its
    ``==``s once, in source order, as that ``==``'s leaf, and is kept as
    read."""
    checked: set[tuple[int, TypeExpr]] = set()  # (id(value), type); `g` keeps each value alive

    # `leaf` and a fact table's pins share `unify`; were `leaf` to call
    # itself, each call of `check_goal` would leave a reference cycle for
    # the garbage collector, which then runs far more often
    def unify(h: Union[Unify, Disunify], scope: TypeEnv, fresh: dict) -> Goal:
        v1, v2 = h.v1, h.v2
        try:
            ty, v = type_of_value(scope, v1, None), v2
        except UninferableValue:
            ty, v = type_of_value(scope, v2, None), v1
        if fresh:
            type_of_value(scope, v, ty)
        elif (id(v), ty) not in checked:
            type_of_value(scope, v, ty)
            checked.add((id(v), ty))
        return type(h)(v1, v2, ty)

    def leaf(h: Goal, fresh: dict[str, TypeExpr]) -> Goal:
        scope = TypeEnv(env.vars, env.tyvars, fresh) if fresh else env
        match h:
            case Unify() | Disunify():
                return unify(h, scope, fresh)
            case Call():
                return _check_call(relenv, scope, h)
            case Facts(rows=rows):
                seen: set[tuple[str, int, bool]] = set()
                for pins, _ in rows:
                    for x, (v, u) in pins.items():
                        if (x, id(v), v is u.v2) not in seen:
                            seen.add((x, id(v), v is u.v2))
                            unify(u, scope, fresh)
        return h  # a factor or a fact table

    return map_goal(g, leaf, partial(check_type_valid, env))


def check_relation(relenv: RelEnv, rel: RelationDef) -> RelationDef:
    env = TypeEnv(rel.params, frozenset(rel.tyvars))
    for _, ty in rel.params:
        check_type_valid(env, ty)
    in_params = free_type_vars(*(ty for _, ty in rel.params))
    for tv in rel.tyvars:
        if tv not in in_params:
            raise TypeCheckError(f"type variable {tv} of {rel.name} does not occur in any "
                                 f"parameter, so calls could never determine it")
    return RelationDef(rel.name, rel.tyvars, rel.params, check_goal(relenv, env, rel.body))


def check_program(p: Program) -> Program:
    """Check every relation against the header environment; aggregate errors."""
    relenv = {rel.name: rel for rel in p.relations}
    checked = []
    errors = []
    for rel in p.relations:
        try:
            checked.append(check_relation(relenv, rel))
        except TypeCheckError as e:
            errors.append(f"{rel.name}: {e}")
    if errors:
        raise TypeCheckError("; ".join(errors))
    return Program(tuple(checked))
