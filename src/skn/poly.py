"""Compiling polymorphic relations down to the monomorphic core.

Two lowering modes produce a monomorphic program ready for tabulation.
Both run one worklist: it builds each monomorphic relation with a
polymorphic call, then each instance a rewritten call demands, in one
`map_goal` pass that substitutes the instance's concrete types and
rewrites each call in its scope.  Other relations are kept as checked.

* ``monomorphize`` makes one instance per distinct concrete type
  substitution reached from the monomorphic relations, and rewrites
  each call to name its instance directly.

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
  pattern, and the instance has the same weight at all of them.  The
  call rewrite types each call generically (`generic_arg_env`).

The wrapper is emitted as the paper defines it: one ``fresh`` over the
copies, whose body conjoins the call to the instance with the pattern
code.  Its `Fresh.wrap` records the generic types of the copied variables;
the evaluator reads that record and gathers the instance's weight at one
canonical tuple of the pattern instead of summing over all of them; a
program read back from its rendered text has no record and evaluates the
wrapper as written.

The pattern code (`enforce_eqpat_codegen`) states the pattern as
defined: each copied variable, and the caller's variable it copies,
equals its generic type's shell (its variable-typed parts replaced by
hole variables), and each type variable's holes are pairwise equal on
both sides or on neither.  Each type's hole counts, `TypeExpr.holes`,
number the holes as a static slot allocator: a sum's branches share
slots (a value realizes one branch, so a max suffices), a product
concatenates its components' slots.  Slots that the realized branch
does not populate stay unconstrained, which is harmless for the same
idempotence reason.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import replace
from functools import cached_property
from itertools import combinations
from typing import Optional

from .semiring import SemiringSpec
from .syntax import (
    Binders, Call, Conj, Disj, Disunify, Facts, Fresh, Goal, Left, Pair, Prod,
    Program, RelationDef, Right, SOLE, Sum, TyVar, TypeExpr, Unify, Unit,
    ValueExpr, Var, _NameSupply, along, as_facts, free_type_vars, map_goal,
    map_value, nest, subgoals, walk_goal,
)
from .typecheck import apply_subst, check_program


class LoweringError(Exception):
    pass


class NonIdempotentSemiring(LoweringError):
    pass


class InstanceExplosion(LoweringError):
    pass


# ---------------------------------------------------------------------------
# occurrence counting

def count_env(alpha: str, delta_types) -> int:
    """The most `alpha` holes a value environment of `delta_types` can have."""
    return sum(ty.holes.get(alpha, 0) for _, ty in delta_types)


def canonical_type(n: int) -> TypeExpr:
    """The size-n stand-in type: a right-nested sum of n Units."""
    if n < 1:
        raise ValueError("types must have at least one value")
    t: TypeExpr = Unit()
    for _ in range(n - 1):
        t = Sum(Unit(), t)
    return t


def smallest_large_enough(rel: RelationDef) -> dict[str, int]:
    """Size per type variable at which one instance determines all larger
    ones: the most holes of it in any value environment of the body, or 1.
    One walk keeps each variable's holes in the parameters and the open
    freshes' binders, adding a fresh's on entering it and taking them away
    on leaving, so no environment is built."""
    holes = {tv: count_env(tv, rel.params) for tv in rel.tyvars}
    most = {tv: max(1, n) for tv, n in holes.items()}
    for h, entering in walk_goal(rel.body):
        if isinstance(h, Fresh):
            for tv in holes:
                holes[tv] += count_env(tv, h.binders) * (1 if entering else -1)
                most[tv] = max(most[tv], holes[tv])
    return most


# ---------------------------------------------------------------------------
# instance bookkeeping

MODES = ("monomorphize", "large-enough")
MAX_INSTANCES = 10000
MAX_TYVAR_SIZE = 4096


class _Lowering:
    def __init__(self, program: Program, mode: str):
        self.source = {rel.name: rel for rel in program.relations}
        self.mode = mode
        polymorphic = {rel.name for rel in program.relations if rel.tyvars}
        # the monomorphic relations with a polymorphic call; with no
        # polymorphic relation, no goal is walked
        self.rewritten = {rel.name for rel in program.relations
                          if polymorphic and not rel.tyvars
                          and any(isinstance(g, Call) and g.rel in polymorphic
                                  for g in subgoals(rel.body))}
        self.called: set[str] = set()  # the monomorphic relations that built ones call
        # (rel, concrete types per tyvar) -> mangled name
        self.instances: dict[tuple[str, tuple[TypeExpr, ...]], str] = {}
        self.pending: deque = deque()
        self.large_enough = {rel.name: smallest_large_enough(rel) for rel in program.relations
                             if rel.tyvars and mode == "large-enough"}
        self.notes: list[str] = []

    @cached_property
    def names(self) -> _NameSupply:
        """New names, built on first use to avoid every relation, parameter
        and fresh binder: in a checked program, every name in use."""
        used = set(self.source)
        for rel in self.source.values():
            used.update(x for x, _ in rel.params)
            used.update(x for g in subgoals(rel.body) if isinstance(g, Fresh)
                        for x, _ in g.binders)
        return _NameSupply(used)

    def run(self) -> list[RelationDef]:
        """The worklist: each monomorphic relation, lowered if it has a
        polymorphic call, then each instance the rewritten calls demand."""
        out = [self.lower(rel, {}, rel.name) if rel.name in self.rewritten else rel
               for rel in self.source.values() if not rel.tyvars]
        while self.pending:
            relname, sigma_types = key = self.pending.popleft()
            source = self.source[relname]
            out.append(self.lower(source, dict(zip(source.tyvars, sigma_types)),
                                  self.instances[key]))
        return out

    def lower(self, rel: RelationDef, sigma: dict[str, TypeExpr], name: str) -> RelationDef:
        """Lower `rel` as `name` in one pass, replacing its type variables by
        `sigma` (empty for a monomorphic relation) and rewriting its calls.
        A fact table holds no type but its values' annotations, so only an
        instance rebuilds it, to substitute those."""
        def sub(t: Optional[TypeExpr]) -> Optional[TypeExpr]:
            return None if t is None else apply_subst(sigma, t)
        params = tuple((x, sub(ty)) for x, ty in rel.params)

        def values(g: Goal, _=None) -> Goal:
            """An ``==``/``=/=`` with its annotations and type substituted.
            `leaf` maps a fact table's disjunction with this, not itself: a
            closure that calls itself is a reference cycle per relation."""
            if not isinstance(g, (Unify, Disunify)):
                return g
            return type(g)(map_value(g.v1, annot=sub), map_value(g.v2, annot=sub), sub(g.ty))

        def leaf(g: Goal, _) -> Goal:
            if isinstance(g, Call):
                return self.rewrite_call(Call(g.rel, tuple(map_value(a, annot=sub) for a in g.args),
                                              tuple((tv, sub(ty)) for tv, ty in g.subst)))
            if isinstance(g, Facts) and sigma:  # its annotations may name type variables
                return as_facts(map_goal(g.disj, values))
            return values(g)

        return RelationDef(name, (), params, map_goal(rel.body, leaf, sub))

    def demand(self, rel: str, sigma_types: tuple[TypeExpr, ...]) -> str:
        key = (rel, sigma_types)
        if key in self.instances:
            return self.instances[key]
        sizes = tuple(t.size for t in sigma_types)
        if any(n > MAX_TYVAR_SIZE for n in sizes):
            raise InstanceExplosion(
                f"instance of {rel} needs a type variable of size {max(sizes)}; "
                f"polymorphic recursion appears to grow types without bound"
            )
        if len(self.instances) >= MAX_INSTANCES:
            raise InstanceExplosion(
                f"more than {MAX_INSTANCES} relation instances requested"
            )
        name = self.names.relation_name(f"{rel}${'_'.join(map(str, sizes))}")
        self.instances[key] = name
        self.pending.append(key)
        return name

    def rewrite_call(self, g: Call) -> Goal:
        """Rewrite a checked call at concrete types by one decision: in
        large-enough mode, a call typed generically at or above the callee's
        large-enough sizes calls its large-enough instance, through an
        equality-pattern wrapper above those sizes; every other polymorphic
        call is monomorphized, with a note in large-enough mode."""
        assert g.subst is not None, "lowering requires a checked program"
        callee = self.source[g.rel]
        if not callee.tyvars:
            self.called.add(g.rel)
            return Call(g.rel, g.args, None)
        sigma_types = tuple(dict(g.subst)[tv] for tv in callee.tyvars)
        if self.mode == "large-enough":
            target_sizes = self.large_enough[g.rel]
            generic_env = generic_arg_env(tuple(ty for _, ty in callee.params), g.args)
            if generic_env is None:
                self.notes.append(f"{g.rel}: non-generic call, monomorphized")
            elif any(t.size < target_sizes[tv] for tv, t in zip(callee.tyvars, sigma_types)):
                self.notes.append(f"{g.rel}: call below large-enough sizes, monomorphized")
            else:
                target_types = tuple(canonical_type(target_sizes[tv]) for tv in callee.tyvars)
                target_name = self.demand(g.rel, target_types)
                if sigma_types == target_types:
                    return Call(target_name, g.args, None)
                return compile_call(g, target_name, dict(zip(callee.tyvars, target_types)),
                                    self.names, generic_env)
        return Call(self.demand(g.rel, sigma_types), g.args, None)


def instances_of(lowered: Program, source: Program, rel: str) -> list[str]:
    """The instances of `rel` that lowering `source` built in `lowered`, by
    `_Lowering.demand`'s names: `rel$sizes`, then `#k` on a collision."""
    return [n for n in lowered.names() if n not in source.names()
            and re.fullmatch(re.escape(rel) + r"\$[\d_]+(#\d+)?", n)]


# ---------------------------------------------------------------------------
# generic typing of call arguments

def generic_arg_env(params: tuple[TypeExpr, ...],
                    args: tuple[ValueExpr, ...]) -> Optional[Binders]:
    """Type each variable of a well-typed call's `args` over the callee's
    parameter types `params`, in order of first occurrence in the arguments,
    left to right, as `along` pairs it with its generic type; None if no
    such typing exists (a variable at two generic types, or a constructor
    `along` stops at a type variable).  The re-check types the wrapper
    built from it against the caller's variables."""
    assign: dict[str, TypeExpr] = {}
    for param, arg in zip(params, args):
        for v, pattern in along(arg, param):
            if isinstance(v, Var):
                if assign.setdefault(v.name, pattern) != pattern:
                    return None
            elif isinstance(pattern, TyVar):
                return None
    return tuple(assign.items())


# ---------------------------------------------------------------------------
# equality-pattern code generation

def enforce_eqpat_codegen(delta_generic, vars1: dict, vars2: dict,
                          sigma1: dict, sigma2: dict, supply: _NameSupply) -> Goal:
    """Goal that holds exactly when the `vars1` and `vars2` variable
    families carry the same equality pattern over `delta_generic`: each
    variable equals its generic type's shell on its side, and the holes of
    each type variable agree pairwise on equality.  A type's shell is built
    on both sides at once; a sum's is a new variable per side, typed under
    that side's substitution, bound by a disj of the two injected shells of
    its parts.  Shells are built from an explicit stack, each node's parts
    left to right, then joined by the entry below them: sum variables are
    bound in pre-order, their disjs conjoined in post-order.
    """
    delta_generic = tuple(delta_generic)
    sigmas = (sigma1, sigma2)
    tyvars = free_type_vars(*(ty for _, ty in delta_generic))
    holes = {tv: tuple([supply.fresh("h") for _ in range(count_env(tv, delta_generic))]
                       for _ in sigmas) for tv in tyvars}

    def after(base: dict[str, int], ty: TypeExpr) -> dict[str, int]:
        return {tv: i + ty.holes.get(tv, 0) for tv, i in base.items()}

    binders = [(h, apply_subst(sigma, TyVar(tv))) for tv in tyvars
               for side, sigma in zip(holes[tv], sigmas) for h in side]
    goals: list[Goal] = []
    base = {tv: 0 for tv in tyvars}
    for x, ty in delta_generic:
        # (type, its two images, hole slots, binders, goals) to build, or a join
        stack = [(ty, tuple(apply_subst(sigma, ty) for sigma in sigmas), base, binders, goals)]
        done: list = []
        while stack:
            match stack.pop():
                case ("pair",):
                    done[-2:] = [tuple(map(Pair, *done[-2:]))]
                case ("disj", sums, into, *owns):  # each branch's binders and goals
                    parts, branches = (done.pop(-2), done.pop()), []
                    for inj, shells, (own_binders, own_goals) in zip((Left, Right), parts, owns):
                        body = _conj(own_goals + [Unify(s, inj(p)) for s, p in zip(sums, shells)])
                        branches.append(Fresh(tuple(own_binders), body) if own_binders else body)
                    into.append(Disj(*branches))
                    done.append(sums)
                case (Unit(), *_):
                    done.append((SOLE, SOLE))
                case (TyVar(name), _, at, _, _):
                    done.append(tuple(Var(side[at[name]]) for side in holes[name]))
                case (Prod(a, b), images, at, bound, into):
                    stack += (("pair",),
                              (b, tuple(i.second for i in images), after(at, a), bound, into),
                              (a, tuple(i.first for i in images), at, bound, into))
                case (Sum(a, b), images, at, bound, into):
                    sums = tuple(Var(supply.fresh("s")) for _ in sigmas)
                    bound += ((s.name, image) for s, image in zip(sums, images))
                    owns = ([], []), ([], [])  # both branches' holes from the same slots
                    stack += (("disj", sums, into, *owns),
                              (b, tuple(i.right for i in images), at, *owns[1]),
                              (a, tuple(i.left for i in images), at, *owns[0]))
        goals += map(Unify, (Var(vars1[x]), Var(vars2[x])), done[0])
        base = after(base, ty)
    for sides in holes.values():
        for i, j in combinations(range(len(sides[0])), 2):
            goals.append(Disj(*(_conj([rel(Var(side[i]), Var(side[j])) for side in sides])
                                for rel in (Unify, Disunify))))
    return Fresh(tuple(binders), _conj(goals)) if binders else _conj(goals)


def _conj(goals: list[Goal]) -> Goal:
    return nest(Conj, goals) if goals else Unify(SOLE, SOLE)  # trivial success


def compile_call(call: Call, target_name: str, sigma2: dict[str, TypeExpr],
                 supply: _NameSupply, generic_env: Binders) -> Goal:
    """Rewrite a large-enough polymorphic call into a wrapper: one ``fresh``
    binding a copy of each variable `generic_env` types, at its target type,
    over a call to the target instance over the copies conjoined with the
    equality-pattern code between the variables and their copies.  Its
    `wrap` is `generic_env`; `eval._gather` reads the call from its body."""
    vars1 = {x: x for x, _ in generic_env}
    vars2 = {x: supply.fresh(x) for x, _ in generic_env}

    # The caller's annotations name its own types; without them the
    # re-check infers each argument from the target's parameter types.
    renamed_args = tuple(
        map_value(a, var=lambda v: Var(vars2[v.name]), annot=lambda _: None)
        for a in call.args
    )
    body = Conj(Call(target_name, renamed_args, None),
                enforce_eqpat_codegen(generic_env, vars1, vars2, dict(call.subst), sigma2, supply))
    copies = tuple((vars2[x], apply_subst(sigma2, ty)) for x, ty in generic_env)
    return Fresh(copies, body, generic_env) if copies else body


# ---------------------------------------------------------------------------
# whole-program lowering

def lower_program(p: Program, mode: str, spec: SemiringSpec,
                  notes: Optional[list] = None) -> Program:
    """Produce a monomorphic program whose tables agree with `p`'s.

    A monomorphic relation with no polymorphic call is kept as `p` has it.
    The relations the lowering builds are re-checked, beside the headers of
    the kept ones they call, so evaluation can rely on their recorded types.
    """
    if mode not in MODES:
        raise ValueError(f"unknown poly mode {mode!r}")
    if mode == "large-enough" and not spec.idempotent_add:
        raise NonIdempotentSemiring(
            f"the large-enough pipeline needs idempotent addition; "
            f"the {spec.name} semiring does not have it"
        )
    ctx = _Lowering(p, mode)
    lowered = ctx.run()
    if notes is not None:
        notes.extend(ctx.notes)
    built = [rel for rel in lowered if rel is not ctx.source.get(rel.name)]
    headers = [replace(ctx.source[n], body=_conj([])) for n in sorted(ctx.called - ctx.rewritten)]
    checked = iter(check_program(Program((*built, *headers))).relations)
    return Program(tuple(rel if rel is ctx.source.get(rel.name) else next(checked)
                         for rel in lowered))

