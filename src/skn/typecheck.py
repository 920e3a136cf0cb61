"""Typing judgements for values, goals, relations, and programs.

Checking keeps every value as written.  It records type facts in two
places only: every ``==``/``=/=`` records its common argument type, and
every relation call records its inferred type-variable substitution.
One `syntax.map_goal` pass checks each leaf under the relation's
parameters and the fresh binders around it.

A call's substitution is one binding of the callee's type variables,
built by one-way matching (not unification) of each declared parameter
type against its argument's type, which the caller's context fixes.  An
argument is checked against its parameter type under the binding once the
binding covers that parameter's type variables; until then it must be
inferable alone.  A relation header must mention each of its type
variables in some parameter type, or calls could never determine it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .syntax import (
    Binders, Call, Disunify, Goal, Left, Pair, Prod, Program, RelationDef,
    Right, Sole, Sum, TyVar, TypeExpr, Unify, Unit, UNIT, ValueExpr, Var,
    fold, free_type_vars, map_goal, render_type, render_value_expr,
)


class TypeCheckError(Exception):
    pass


class UninferableValue(TypeCheckError):
    """A bare left/right whose sum type cannot be determined here."""


@dataclass(frozen=True)
class TypeEnv:
    vars: Binders = ()
    tyvars: frozenset = frozenset()

    def lookup(self, name: str) -> TypeExpr:
        for x, ty in self.vars:
            if x == name:
                return ty
        raise TypeCheckError(f"unbound variable {name!r}")


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
    match structurally.
    """
    match pattern:
        case TyVar(name) if name in tyvars:
            if name in binding:
                if binding[name] != actual:
                    raise TypeCheckError(
                        f"type variable {name} matched to both "
                        f"{render_type(binding[name])} and {render_type(actual)}"
                    )
            else:
                binding[name] = actual
        case Unit() | TyVar() if actual is pattern:
            # types are interned; a TyVar here is not a pattern variable
            pass
        case Sum(a, b) if isinstance(actual, Sum):
            match_type(a, actual.left, binding, tyvars)
            match_type(b, actual.right, binding, tyvars)
        case Prod(a, b) if isinstance(actual, Prod):
            match_type(a, actual.first, binding, tyvars)
            match_type(b, actual.second, binding, tyvars)
        case _:
            raise TypeCheckError(
                f"cannot match {render_type(pattern)} against {render_type(actual)}"
            )


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
    """The type of a value.

    `expected` drives inference for bare left/right; when both an
    annotation and an expectation are present they must agree.
    """
    match v:
        case Sole():
            if expected is not None and expected != UNIT:
                raise TypeCheckError(f"sole has type Unit, expected {render_type(expected)}")
            return UNIT
        case Var(name):
            ty = env.lookup(name)
            if expected is not None and expected != ty:
                raise TypeCheckError(
                    f"{name} has type {render_type(ty)}, expected {render_type(expected)}"
                )
            return ty
        case Left(inner, annot) | Right(inner, annot):
            is_left = isinstance(v, Left)
            target = annot if annot is not None else expected
            if target is None:
                raise UninferableValue(
                    f"cannot infer the sum type of {render_value_expr(v)}; annotate it"
                )
            if annot is not None:
                check_type_valid(env, annot)
                if expected is not None and annot != expected:
                    raise TypeCheckError(
                        f"annotation {render_type(annot)} does not match "
                        f"expected {render_type(expected)}"
                    )
            if not isinstance(target, Sum):
                raise TypeCheckError(
                    f"{'left' if is_left else 'right'} constructor needs a Sum type, "
                    f"got {render_type(target)}"
                )
            type_of_value(env, inner, target.left if is_left else target.right)
            return target
        case Pair(a, b):
            if expected is None:
                ea, eb = None, None
            elif isinstance(expected, Prod):
                ea, eb = expected.first, expected.second
            else:
                raise TypeCheckError(f"pair value cannot have type {render_type(expected)}")
            return Prod(type_of_value(env, a, ea), type_of_value(env, b, eb))
    raise TypeError(v)


# ---------------------------------------------------------------------------
# goal / relation / program checking

def _check_call(relenv: RelEnv, env: TypeEnv, g: Call) -> Call:
    if g.rel not in relenv:
        raise TypeCheckError(f"call to undefined relation {g.rel!r}")
    callee = relenv[g.rel]
    params = tuple(ty for _, ty in callee.params)
    if len(params) != len(g.args):
        raise TypeCheckError(
            f"{g.rel} takes {len(params)} arguments, got {len(g.args)}"
        )

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
        i = sorted(pending)[0]
        raise TypeCheckError(
            f"cannot determine the type of argument {i + 1} in call to {g.rel}; "
            f"annotate its sum constructors"
        )
    for tv in callee.tyvars:
        if tv not in binding:
            raise TypeCheckError(f"type variable {tv} is unconstrained by the arguments")
    return Call(g.rel, g.args, tuple((tv, binding[tv]) for tv in callee.tyvars))


def check_goal(relenv: RelEnv, env: TypeEnv, g: Goal) -> Goal:
    def leaf(h: Goal, binders: Binders) -> Goal:
        scope = TypeEnv(env.vars + binders, env.tyvars) if binders else env
        match h:
            case Unify(v1, v2, _) | Disunify(v1, v2, _):
                try:
                    ty = type_of_value(scope, v1, None)
                    type_of_value(scope, v2, ty)
                except UninferableValue:
                    ty = type_of_value(scope, v2, None)
                    type_of_value(scope, v1, ty)
                return type(h)(v1, v2, ty)
            case Call():
                return _check_call(relenv, scope, h)
        return h  # a factor

    return map_goal(g, leaf, partial(check_type_valid, env))


def check_relation(relenv: RelEnv, rel: RelationDef) -> RelationDef:
    env = TypeEnv(rel.params, frozenset(rel.tyvars))
    for _, ty in rel.params:
        check_type_valid(env, ty)
    in_params = free_type_vars(*(ty for _, ty in rel.params))
    for tv in rel.tyvars:
        if tv not in in_params:
            raise TypeCheckError(
                f"type variable {tv} of {rel.name} does not occur in any parameter, "
                f"so calls could never determine it"
            )
    body = check_goal(relenv, env, rel.body)
    return RelationDef(rel.name, rel.tyvars, rel.params, body)


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
