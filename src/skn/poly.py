"""Compiling polymorphic relations down to the monomorphic core.

Two lowering modes produce a monomorphic program ready for tabulation:

* ``monomorphize`` instantiates every polymorphic relation once per
  distinct concrete type substitution reached from the monomorphic
  relations, and rewrites each call to name its instance directly.

* ``large-enough`` instead builds, per polymorphic relation, one instance
  whose type-variable sizes are the relation's occurrence bound (the most
  holes of that variable any value environment in the body can contain).
  Calls at sizes at or above the bound are compiled into a call to that
  single instance plus generated code forcing the fresh instance-side
  arguments to carry the same *equality pattern* as the original
  arguments: identical non-variable structure, and the same
  equal/disequal relationships between the variable-typed pieces
  (the holes).  Calls below the bound, and calls whose arguments cannot
  be typed generically, fall back to monomorphization.  The technique
  requires semiring addition to be idempotent: the generated wrapper
  sums the instance's weight over every tuple with the caller's equality
  pattern, and the instance has the same weight at all of them.

The wrapper is emitted as the paper defines it, and its shape is also
recorded on its outer ``fresh`` as a :class:`LargeEnoughCall`.  The
evaluator reads that record and gathers the instance's weight at one
canonical tuple of the pattern instead of summing over all of them; a
program read back from its rendered text has no record and evaluates the
wrapper as written.

Hole bookkeeping uses the occurrence count as a static slot allocator:
within a sum type both branches share the same slots (a value only ever
realizes one branch, so a max suffices), while a product concatenates its
components' slots.  Slots that the realized branch does not populate stay
unconstrained in the generated code, which is harmless for the same
idempotence reason.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from .semiring import SemiringSpec
from .syntax import (
    Call, Conj, Disj, Disunify, Fresh, Goal, Left, Pair, Prod, Program,
    RelationDef, Right, SOLE, Sum, TyVar, TypeExpr, Unify, Unit,
    ValueExpr, Var, _NameSupply, free_type_vars, map_goal, map_value,
    subgoals,
)
from .typecheck import CallInfo, apply_subst, check_program
from .eval import type_size


class LoweringError(Exception):
    pass


class NonIdempotentSemiring(LoweringError):
    pass


class InstanceExplosion(LoweringError):
    pass


# ---------------------------------------------------------------------------
# occurrence counting

def count_type(alpha: str, t: TypeExpr) -> int:
    match t:
        case Unit():
            return 0
        case TyVar(name):
            return 1 if name == alpha else 0
        case Sum(a, b):
            return max(count_type(alpha, a), count_type(alpha, b))
        case Prod(a, b):
            return count_type(alpha, a) + count_type(alpha, b)
    raise TypeError(t)


def count_env(alpha: str, delta_types) -> int:
    return sum(count_type(alpha, ty) for _, ty in delta_types)


def count_goal(alpha: str, g: Goal, delta_types) -> int:
    delta_types = tuple(delta_types)
    match g:
        case Conj(a, b) | Disj(a, b):
            return max(count_goal(alpha, a, delta_types),
                       count_goal(alpha, b, delta_types))
        case Fresh(x, ty, body):
            return count_goal(alpha, body, delta_types + ((x, ty),))
        case _:
            return count_env(alpha, delta_types)


def count_relation(alpha: str, rel: RelationDef) -> int:
    return count_goal(alpha, rel.body, rel.params)


def canonical_type(n: int) -> TypeExpr:
    """The size-n stand-in type: a right-nested sum of n Units."""
    if n < 1:
        raise ValueError("types must have at least one value")
    t: TypeExpr = Unit()
    for _ in range(n - 1):
        t = Sum(Unit(), t)
    return t


def smallest_large_enough(rel: RelationDef) -> dict[str, int]:
    """Size per type variable at which one instance determines all larger ones."""
    return {tv: max(1, count_relation(tv, rel)) for tv in rel.tyvars}


# ---------------------------------------------------------------------------
# instantiation

def instantiate_relation(rel: RelationDef, sigma: dict[str, TypeExpr],
                         name: Optional[str] = None) -> RelationDef:
    """Apply a concrete substitution through a relation definition."""
    if not sigma and name is None:
        return rel

    def sub_type(t: Optional[TypeExpr]) -> Optional[TypeExpr]:
        return None if t is None else apply_subst(sigma, t)

    def sub_leaf(g: Goal) -> Goal:
        match g:
            case Unify(v1, v2, ty) | Disunify(v1, v2, ty):
                return type(g)(map_value(v1, annot=sub_type),
                               map_value(v2, annot=sub_type), sub_type(ty))
            case Call(callee, args, info):
                if isinstance(info, CallInfo):
                    info = replace(info, subst=tuple(
                        (tv, apply_subst(sigma, ty)) for tv, ty in info.subst))
                return Call(callee, tuple(map_value(a, annot=sub_type) for a in args),
                            info)
        return g

    params = tuple((x, apply_subst(sigma, ty)) for x, ty in rel.params)
    tyvars = tuple(tv for tv in rel.tyvars if tv not in sigma)
    return RelationDef(name or rel.name, tyvars, params,
                       map_goal(rel.body, sub_leaf, sub_type))


# ---------------------------------------------------------------------------
# instance bookkeeping

def mangle(rel: str, sizes: tuple[int, ...]) -> str:
    return f"{rel}${'_'.join(str(n) for n in sizes)}" if sizes else rel


MAX_INSTANCES = 10000
MAX_TYVAR_SIZE = 4096


class _Lowering:
    def __init__(self, program: Program, mode: str):
        self.source = {rel.name: rel for rel in program.relations}
        self.mode = mode
        # In a checked program every variable is a parameter or a fresh
        # binder, so these are all the names a variable can have.
        used = set(self.source)
        for rel in program.relations:
            used.update(x for x, _ in rel.params)
            used.update(g.var for g in subgoals(rel.body) if isinstance(g, Fresh))
        self.names = _NameSupply(used)
        # (rel, concrete types per tyvar) -> mangled name
        self.instances: dict[tuple[str, tuple[TypeExpr, ...]], str] = {}
        self.pending: deque = deque()
        self.notes: list[str] = []

    def run(self) -> list[RelationDef]:
        """The worklist: rewrite every monomorphic relation, then
        instantiate and rewrite each instance the rewritten calls demand,
        until none is pending."""
        out = [self.rewrite(rel) for rel in self.source.values() if not rel.tyvars]
        while self.pending:
            relname, sigma_types = key = self.pending.popleft()
            source = self.source[relname]
            sigma = dict(zip(source.tyvars, sigma_types))
            out.append(self.rewrite(instantiate_relation(source, sigma, self.instances[key])))
        return out

    def rewrite(self, rel: RelationDef) -> RelationDef:
        body = map_goal(rel.body,
                        lambda g: self.rewrite_call(g) if isinstance(g, Call) else g)
        return RelationDef(rel.name, (), rel.params, body)

    def demand(self, rel: str, sigma_types: tuple[TypeExpr, ...]) -> str:
        key = (rel, sigma_types)
        if key in self.instances:
            return self.instances[key]
        sizes = tuple(type_size(t) for t in sigma_types)
        if any(n > MAX_TYVAR_SIZE for n in sizes):
            raise InstanceExplosion(
                f"instance of {rel} needs a type variable of size {max(sizes)}; "
                f"polymorphic recursion appears to grow types without bound"
            )
        if len(self.instances) >= MAX_INSTANCES:
            raise InstanceExplosion(
                f"more than {MAX_INSTANCES} relation instances requested"
            )
        name = self.names.relation_name(mangle(rel, sizes))
        self.instances[key] = name
        self.pending.append(key)
        return name

    def rewrite_call(self, g: Call) -> Goal:
        info = g.info
        assert isinstance(info, CallInfo), "lowering requires a checked program"
        callee = self.source[g.rel]
        if not callee.tyvars:
            return Call(g.rel, g.args, None)
        sigma_types = tuple(dict(info.subst)[tv] for tv in callee.tyvars)
        if self.mode == "monomorphize":
            return Call(self.demand(g.rel, sigma_types), g.args, None)

        target_sizes = smallest_large_enough(callee)
        call_sizes = {tv: type_size(t) for tv, t in zip(callee.tyvars, sigma_types)}
        if info.generic_env is None:
            self.notes.append(f"{g.rel}: non-generic call, monomorphized")
            return Call(self.demand(g.rel, sigma_types), g.args, None)
        if any(call_sizes[tv] < target_sizes[tv] for tv in callee.tyvars):
            self.notes.append(f"{g.rel}: call below large-enough sizes, monomorphized")
            return Call(self.demand(g.rel, sigma_types), g.args, None)
        target_types = tuple(canonical_type(target_sizes[tv]) for tv in callee.tyvars)
        target_name = self.demand(g.rel, target_types)
        if sigma_types == target_types:
            return Call(target_name, g.args, None)
        sigma2 = dict(zip(callee.tyvars, target_types))
        return compile_call(g, target_name, sigma2, self.names)


# ---------------------------------------------------------------------------
# equality-pattern code generation

def enforce_eqpat_codegen(delta_generic, vars1: dict, vars2: dict,
                          sigma1: dict, sigma2: dict, supply: _NameSupply) -> Goal:
    """Goal that holds exactly when the `vars1` and `vars2` variable
    families carry the same equality pattern over `delta_generic`.

    Both families are deconstructed into freshly bound ancillary hole
    variables (one family per side, typed under the side's substitution),
    then every hole pair is forced to agree on equality/disequality.
    Hole slots are allocated by the occurrence count: sum branches share
    slots, product components concatenate them.
    """
    delta_generic = tuple(delta_generic)
    tyvars = free_type_vars(*(ty for _, ty in delta_generic))
    slots = {tv: count_env(tv, delta_generic) for tv in tyvars}
    h1 = {tv: [supply.fresh("h") for _ in range(slots[tv])] for tv in tyvars}
    h2 = {tv: [supply.fresh("h") for _ in range(slots[tv])] for tv in tyvars}

    def deconstruct(ty: TypeExpr, e1: ValueExpr, e2: ValueExpr,
                    bases: dict[str, int]) -> list[Goal]:
        match ty:
            case Unit():
                return []
            case TyVar(name):
                i = bases[name]
                bases[name] += 1
                return [Unify(e1, Var(h1[name][i])), Unify(e2, Var(h2[name][i]))]
            case Prod(a, b):
                c1, c2 = supply.fresh("p"), supply.fresh("p")
                d1, d2 = supply.fresh("p"), supply.fresh("p")
                goals = [
                    Unify(e1, Pair(Var(c1), Var(d1))),
                    Unify(e2, Pair(Var(c2), Var(d2))),
                ]
                goals += deconstruct(a, Var(c1), Var(c2), bases)
                goals += deconstruct(b, Var(d1), Var(d2), bases)
                inner = _conj(goals)
                for name_, ty_ in ((d2, apply_subst(sigma2, b)),
                                   (d1, apply_subst(sigma1, b)),
                                   (c2, apply_subst(sigma2, a)),
                                   (c1, apply_subst(sigma1, a))):
                    inner = Fresh(name_, ty_, inner)
                return [inner]
            case Sum(a, b):
                base_l = dict(bases)
                base_r = dict(bases)
                l1, l2 = supply.fresh("c"), supply.fresh("c")
                left_goals = [
                    Unify(e1, Left(Var(l1))),
                    Unify(e2, Left(Var(l2))),
                ] + deconstruct(a, Var(l1), Var(l2), base_l)
                left_branch = Fresh(l1, apply_subst(sigma1, a),
                                    Fresh(l2, apply_subst(sigma2, a),
                                          _conj(left_goals)))
                r1, r2 = supply.fresh("c"), supply.fresh("c")
                right_goals = [
                    Unify(e1, Right(Var(r1))),
                    Unify(e2, Right(Var(r2))),
                ] + deconstruct(b, Var(r1), Var(r2), base_r)
                right_branch = Fresh(r1, apply_subst(sigma1, b),
                                     Fresh(r2, apply_subst(sigma2, b),
                                           _conj(right_goals)))
                # both branches draw from the same slots
                for tv in bases:
                    bases[tv] += count_type(tv, ty)
                return [Disj(left_branch, right_branch)]
        raise TypeError(ty)

    goals: list[Goal] = []
    bases = {tv: 0 for tv in tyvars}
    for x, ty in delta_generic:
        goals += deconstruct(ty, Var(vars1[x]), Var(vars2[x]), bases)
    assert bases == slots

    for tv in tyvars:
        for i in range(slots[tv]):
            for j in range(i + 1, slots[tv]):
                a1, b1 = Var(h1[tv][i]), Var(h1[tv][j])
                a2, b2 = Var(h2[tv][i]), Var(h2[tv][j])
                goals.append(Disj(
                    Conj(Unify(a1, b1), Unify(a2, b2)),
                    Conj(Disunify(a1, b1), Disunify(a2, b2)),
                ))

    body = _conj(goals)
    for tv in reversed(tyvars):
        for name in reversed(h2[tv]):
            body = Fresh(name, apply_subst(sigma2, TyVar(tv)), body)
        for name in reversed(h1[tv]):
            body = Fresh(name, apply_subst(sigma1, TyVar(tv)), body)
    return body


def _conj(goals: list[Goal]) -> Goal:
    if not goals:
        return Unify(SOLE, SOLE)  # trivial success
    node = goals[-1]
    for g in reversed(goals[:-1]):
        node = Conj(g, node)
    return node


@dataclass(frozen=True)
class LargeEnoughCall:
    """The shape of a large-enough wrapper, kept on its outer ``fresh``:
    `call` calls the target instance over the copies; `copies` pairs each
    caller variable with its copy, in `generic_env` order; `generic_env`
    types the caller variables over the callee's type variables, which
    `sigma1` maps to the caller's types and `sigma2` to the target's."""
    call: Call
    copies: tuple[tuple[str, str], ...]
    generic_env: tuple[tuple[str, TypeExpr], ...]
    sigma1: tuple[tuple[str, TypeExpr], ...]
    sigma2: tuple[tuple[str, TypeExpr], ...]


def compile_call(call: Call, target_name: str, sigma2: dict[str, TypeExpr],
                 supply: _NameSupply) -> Goal:
    """Rewrite a large-enough polymorphic call into a call to the target
    instance over fresh copies of the argument variables, conjoined with
    the generated equality-pattern enforcement between the original
    variables and the copies.  The outer ``fresh`` carries the wrapper's
    :class:`LargeEnoughCall`."""
    info = call.info
    assert isinstance(info, CallInfo) and info.generic_env is not None
    sigma1 = dict(info.subst)
    generic_env = info.generic_env

    vars1 = {x: x for x, _ in generic_env}
    vars2 = {x: supply.fresh(x) for x, _ in generic_env}

    # The caller's annotations name its own types; without them the
    # re-check infers each argument from the target's parameter types.
    renamed_args = tuple(
        map_value(a, var=lambda v: Var(vars2.get(v.name, v.name)), annot=lambda _: None)
        for a in call.args
    )
    target = Call(target_name, renamed_args, None)
    body: Goal = Conj(
        target,
        enforce_eqpat_codegen(generic_env, vars1, vars2, sigma1, sigma2, supply),
    )
    for x, ty in reversed(generic_env):
        body = Fresh(vars2[x], apply_subst(sigma2, ty), body)
    if isinstance(body, Fresh):
        body = replace(body, wrap=LargeEnoughCall(
            target, tuple(vars2.items()), generic_env, info.subst, tuple(sigma2.items())))
    return body


# ---------------------------------------------------------------------------
# whole-program lowering

def lower_program(p: Program, mode: str, spec: SemiringSpec,
                  notes: Optional[list] = None) -> Program:
    """Produce a monomorphic program whose tables agree with `p`'s.

    The result is re-checked under the base typing rules before being
    returned, so downstream evaluation can rely on its recorded types.
    """
    if mode not in ("monomorphize", "large-enough"):
        raise ValueError(f"unknown poly mode {mode!r}")
    if mode == "large-enough" and not spec.idempotent_add:
        raise NonIdempotentSemiring(
            f"the large-enough pipeline needs idempotent addition; "
            f"the {spec.name} semiring does not have it"
        )
    ctx = _Lowering(p, mode)
    lowered = Program(tuple(ctx.run()))
    if notes is not None:
        notes.extend(ctx.notes)
    return check_program(lowered)

