"""Bottom-up evaluation over dense semiring arrays.

Every concrete type denotes a finite, canonically ordered list of values:
Unit has the single value sole; a sum lists all lefts (in left-component
order) then all rights; a product is first-component-major.  A value's
position in that list is its index, computed in closed form:

    idx(left v)     = idx(v)
    idx(right v)    = |t1| + idx(v)
    idx(pair v1 v2) = idx(v1) * |t2| + idx(v2)

A goal under a set of in-scope variables denotes an array with one axis
per variable it mentions; conj and disj combine arrays pointwise with the
semiring operations (broadcasting over axes a subgoal does not touch),
== and =/= produce 0/1 arrays from index comparisons, a call gathers from
the called relation's table, and fresh sums an axis away.  To keep
intermediate arrays small, a fresh over a conjunction eliminates its
bound variables factor-by-factor instead of materializing the full joint
grid.

A large-enough wrapper (see :mod:`skn.poly`) sums the target instance's
weight over every copy of the caller's arguments with their equality
pattern.  When its outer fresh carries the wrapper's record, it is
evaluated instead as one gather from the instance's table at a canonical
copy: the arguments' shell, with each type variable's distinct hole
values numbered in order of first occurrence.  The instance has the same
weight at every copy with that pattern, and addition is idempotent on
this path, so the result is the wrapper's sum exactly.  Without the
record, as in a program read back from its rendered text, the wrapper
is evaluated as written.

A program's tables are the least fixed point of its relations, starting
from tables that are semiring-zero everywhere.  The fixpoint is solved one
strongly connected component of the call graph at a time, callees first:
a relation that does not call itself, directly or through others, reads
only finished tables and is evaluated once; a group of mutually recursive
relations is re-evaluated against its own previous round until it
stabilizes.  Over a field (the real semiring), a small group whose bodies
are affine in its own tables is instead solved exactly: its least fixed
point is the solution of x = A·x + b, the first step of Newton's method
for program analysis (Esparza, Kiefer and Luttenberger, JACM 2010).  This
array engine is the only evaluator in the package; the brute-force
cell-by-cell reference lives with the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .semiring import SemiringSpec, parse_weight_literal
from .syntax import (
    Call, Conj, Disj, Disunify, Factor, Fresh, Goal, Left, Pair, Prod,
    Program, RelationDef, Right, Sole, SOLE, Sum, TyVar, TypeExpr, Unify,
    Unit, ValueExpr, Var, free_type_vars, free_vars, subgoals,
)
from .typecheck import apply_subst


# ---------------------------------------------------------------------------
# types as index spaces

def type_size(t: TypeExpr) -> int:
    if t.size is None:
        raise ValueError(f"type variable {free_type_vars(t)[0]} has no size")
    return t.size


def enumerate_type(t: TypeExpr) -> list[ValueExpr]:
    match t:
        case Unit():
            return [SOLE]
        case Sum(a, b):
            return [Left(v) for v in enumerate_type(a)] + \
                   [Right(v) for v in enumerate_type(b)]
        case Prod(a, b):
            vs2 = enumerate_type(b)
            return [Pair(v1, v2) for v1 in enumerate_type(a) for v2 in vs2]
        case TyVar(name):
            raise ValueError(f"type variable {name} has no values")
    raise TypeError(t)


# ---------------------------------------------------------------------------
# relation tables

@dataclass
class RelTable:
    rel: str
    params: tuple[tuple[str, TypeExpr], ...]
    cells: np.ndarray


def zero_table(rel: RelationDef, spec: SemiringSpec) -> RelTable:
    sizes = tuple(type_size(ty) for _, ty in rel.params)
    cells = np.full(sizes, spec.zero, dtype=spec.dtype)
    return RelTable(rel.name, rel.params, cells)


# ---------------------------------------------------------------------------
# the array engine

@dataclass
class _Factor:
    dims: tuple[str, ...]
    arr: np.ndarray


def _aligned(f: _Factor, dims_out: tuple[str, ...]) -> np.ndarray:
    """View a factor's array in `dims_out` order with broadcastable axes."""
    perm = [f.dims.index(d) for d in dims_out if d in f.dims]
    arr = f.arr.transpose(perm)
    sizes = iter(arr.shape)
    return arr.reshape(tuple(next(sizes) if d in f.dims else 1 for d in dims_out))


def _combine(f1: _Factor, f2: _Factor, op, scope: dict[str, TypeExpr]) -> _Factor:
    dims = tuple(d for d in scope if d in f1.dims or d in f2.dims)
    return _Factor(dims, op(_aligned(f1, dims), _aligned(f2, dims)))


def _axes(scope: dict[str, TypeExpr], dims: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Each variable of `dims` as the index array along its own axis."""
    out = {}
    for axis, d in enumerate(dims):
        shape = [1] * len(dims)
        shape[axis] = scope[d].size
        out[d] = np.arange(scope[d].size, dtype=np.int64).reshape(shape)
    return out


def _index_factor(v: ValueExpr, t: TypeExpr, index: dict[str, np.ndarray]) -> np.ndarray:
    """Integer array giving the index of this value under each assignment,
    where `index` holds the index array of each variable."""
    match v:
        case Var(name):
            return index[name]
        case Sole():
            return np.zeros((), dtype=np.int64)
        case Left(inner, _):
            assert isinstance(t, Sum)
            return _index_factor(inner, t.left, index)
        case Right(inner, _):
            assert isinstance(t, Sum)
            return t.left.size + _index_factor(inner, t.right, index)
        case Pair(a, b):
            assert isinstance(t, Prod)
            ia = _index_factor(a, t.first, index)
            ib = _index_factor(b, t.second, index)
            return ia * t.second.size + ib
    raise TypeError(v)


def _gather(table: RelTable, args, index: dict[str, np.ndarray],
            shape: tuple[int, ...]) -> np.ndarray:
    """The table's cells at the indices of `args` under each assignment."""
    indices = tuple(np.broadcast_to(_index_factor(a, ty, index), shape)
                    for a, (_, ty) in zip(args, table.params))
    if not indices:
        return np.broadcast_to(table.cells, shape).copy()
    return np.asarray(table.cells[indices])


def _canonical_index(t: TypeExpr, caller: TypeExpr, target: TypeExpr, idx: np.ndarray,
                     mask: Union[bool, np.ndarray], holes: dict) -> np.ndarray:
    """The index in `target` of the canonical copy of a value of generic
    type `t`, given its index `idx` in `caller`.

    The copy keeps the value's shell and replaces its hole of each type
    variable by the number of distinct values that variable's holes took
    before that hole's first occurrence.  `mask` says where this
    position is realized (its sum branches were taken); `holes` maps each
    type variable to the holes seen so far, with their masks and numbers,
    and the count of distinct values among them.
    """
    if t.size is not None:  # ground: a copy has the caller's value
        return idx
    match t:
        case TyVar(name):
            seen, count = holes.get(name, ([], 0))
            num, first = count, mask
            for value, m, n in seen:
                same = m & mask & (value == idx)
                num = np.where(same, n, num)
                first = first & ~same
            seen.append((idx, mask, num))
            holes[name] = (seen, count + first)
            return num
        case Sum(a, b):
            left = idx < caller.left.size
            ia = _canonical_index(a, caller.left, target.left, idx, mask & left, holes)
            ib = _canonical_index(b, caller.right, target.right,
                                  idx - caller.left.size, mask & ~left, holes)
            return np.where(left, ia, target.left.size + ib)
        case Prod(a, b):
            n = caller.second.size
            ia = _canonical_index(a, caller.first, target.first, idx // n, mask, holes)
            ib = _canonical_index(b, caller.second, target.second, idx % n, mask, holes)
            return ia * target.second.size + ib
    raise TypeError(t)


def _gather_canonical(w, scope: dict[str, TypeExpr],
                      tables: dict[str, RelTable]) -> _Factor:
    """A large-enough wrapper (`w` is its `poly.LargeEnoughCall`) as one
    gather from the target instance's table.

    The wrapper sums the target's weight over every copy with the
    caller's equality pattern.  The target has the same weight at all of
    them, and addition is idempotent on this path, so the sum is the
    weight at one canonical copy, built by `_canonical_index`.
    """
    generic = dict(w.generic_env)
    sigma2 = dict(w.sigma2)
    dims = tuple(d for d in scope if d in generic)
    axes = _axes(scope, dims)
    holes: dict = {}
    copies = {x2: _canonical_index(generic[x], scope[x], apply_subst(sigma2, generic[x]),
                                   axes[x], True, holes)
              for x, x2 in w.copies}
    shape = tuple(scope[d].size for d in dims)
    return _Factor(dims, _gather(tables[w.call.rel], w.call.args, copies, shape))


def _free_dims(scope: dict[str, TypeExpr], values) -> tuple[str, ...]:
    """The variables of `scope` that occur in `values`, in scope order."""
    fv = {d for v in values for d in free_vars(v)}
    return tuple(d for d in scope if d in fv)


def _flatten_conj(g: Goal, out: list[Goal]) -> None:
    if isinstance(g, Conj):
        _flatten_conj(g.g1, out)
        _flatten_conj(g.g2, out)
    else:
        out.append(g)


def _eval_array(g: Goal, scope: dict[str, TypeExpr],
                tables: dict[str, RelTable], spec: SemiringSpec) -> _Factor:
    match g:
        case Factor(lit):
            w = parse_weight_literal(lit, spec)
            return _Factor((), np.asarray(w, dtype=spec.dtype))
        case Unify(v1, v2, ty) | Disunify(v1, v2, ty):
            assert ty is not None, "goal must be type-checked"
            dims = _free_dims(scope, (v1, v2))
            axes = _axes(scope, dims)
            i1 = _index_factor(v1, ty, axes)
            i2 = _index_factor(v2, ty, axes)
            hit = (i1 == i2) if isinstance(g, Unify) else (i1 != i2)
            shape = tuple(scope[d].size for d in dims)
            hit = np.broadcast_to(hit, shape)
            arr = np.where(hit, spec.one, spec.zero).astype(spec.dtype, copy=False)
            return _Factor(dims, arr)
        case Conj(a, b):
            return _combine(_eval_array(a, scope, tables, spec),
                            _eval_array(b, scope, tables, spec), spec.mul, scope)
        case Disj(a, b):
            return _combine(_eval_array(a, scope, tables, spec),
                            _eval_array(b, scope, tables, spec), spec.add, scope)
        case Call(rel, args, _):
            dims = _free_dims(scope, args)
            shape = tuple(scope[d].size for d in dims)
            return _Factor(dims, _gather(tables[rel], args, _axes(scope, dims), shape))
        case Fresh(wrap=w) if w is not None:
            return _gather_canonical(w, scope, tables)
        case Fresh():
            binders: list[str] = []
            body: Goal = g
            inner_scope = dict(scope)
            while isinstance(body, Fresh):
                assert body.var not in inner_scope, "shadowed binder survived parsing"
                binders.append(body.var)
                inner_scope[body.var] = body.ty
                body = body.body
            parts: list[Goal] = []
            _flatten_conj(body, parts)
            factors = [_eval_array(p, inner_scope, tables, spec) for p in parts]
            return _eliminate(factors, binders, inner_scope, spec, scope)
    raise TypeError(g)


def _eliminate(factors: list[_Factor], binders: list[str],
               scope: dict[str, TypeExpr], spec: SemiringSpec,
               outer_scope: dict[str, TypeExpr]) -> _Factor:
    """Sum the bound variables `binders` out of a product of factors,
    smallest intermediate first, ties in binder order."""
    pending = list(binders)
    while pending:
        best, best_cost = None, None
        for name in pending:
            group_dims: set[str] = set()
            for f in factors:
                if name in f.dims:
                    group_dims.update(f.dims)
            cost = 1
            for d in group_dims or {name}:
                cost *= scope[d].size
            if best_cost is None or cost < best_cost:
                best, best_cost = name, cost
        name = best
        pending.remove(name)
        group = [f for f in factors if name in f.dims]
        factors = [f for f in factors if name not in f.dims]
        if not group:
            # unused binder: the sum contributes |type| copies of one
            ones = np.full(scope[name].size, spec.one, dtype=spec.dtype)
            factors.append(_Factor((), spec.add.reduce(ones)))
            continue
        acc = group[0]
        for f in group[1:]:
            acc = _combine(acc, f, spec.mul, scope)
        axis = acc.dims.index(name)
        reduced = spec.sum(acc.arr, axis)
        factors.append(_Factor(tuple(d for d in acc.dims if d != name), reduced))

    if not factors:
        return _Factor((), np.asarray(spec.one, dtype=spec.dtype))
    acc = factors[0]
    for f in factors[1:]:
        acc = _combine(acc, f, spec.mul, scope)
    assert all(d in outer_scope for d in acc.dims)
    return acc


def eval_relation(rel: RelationDef, tables: dict[str, RelTable],
                  spec: SemiringSpec) -> RelTable:
    """Tabulate one relation's body over its full argument grid."""
    scope = dict(rel.params)
    f = _eval_array(rel.body, scope, tables, spec)
    shape = tuple(type_size(ty) for ty in scope.values())
    cells = np.broadcast_to(_aligned(f, tuple(scope)), shape).copy()
    return RelTable(rel.name, rel.params, cells)


# ---------------------------------------------------------------------------
# fixpoint

@dataclass
class FixpointResult:
    tables: dict[str, RelTable]
    converged: bool
    iterations: int
    stopped_on_nan: bool = False  # solving ended at a round that yielded nan


def _call_graph_sccs(program: Program) -> list[tuple[list[RelationDef], bool]]:
    """The strongly connected components of the call graph, callees first,
    each with whether it is recursive (more than one relation, or one that
    calls itself).

    Tarjan's algorithm with an explicit stack, so the length of a call
    chain is not bounded by the recursion limit.
    """
    rels = {rel.name: rel for rel in program.relations}
    calls = {name: [g.rel for g in subgoals(rel.body) if isinstance(g, Call)]
             for name, rel in rels.items()}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    unvisited = {}   # relation -> iterator over the callees it has yet to visit
    stack: list[str] = []
    on_stack: set[str] = set()
    out = []
    for root in calls:
        work = [] if root in index else [root]
        while work:
            v = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
                unvisited[v] = iter(calls[v])
            for w in unvisited[v]:
                if w not in index:
                    work.append(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    names = []
                    while not names or names[-1] != v:
                        names.append(stack.pop())
                        on_stack.discard(names[-1])
                    recursive = len(names) > 1 or v in calls[v]
                    out.append(([rels[n] for n in names], recursive))
    return out


# A recursive group with more cells than this is iterated, not solved:
# probing its matrix takes one round per cell, so a larger group whose
# rounds contract fast converges sooner by iteration.
MAX_SOLVE_CELLS = 64
EPSILON = 1e-9  # convergence tolerance over a field, unless one is given


def _affine(rels: list[RelationDef]) -> bool:
    """Whether the bodies of a group are affine in the group's own tables,
    by syntax: no conj has a call into the group on both sides.  A call is
    linear in its table, disj and fresh add, and conj then only scales."""
    names = {rel.name for rel in rels}

    def calls_group(g: Goal) -> bool:
        return any(isinstance(h, Call) and h.rel in names for h in subgoals(g))

    return not any(isinstance(g, Conj) and calls_group(g.g1) and calls_group(g.g2)
                   for rel in rels for g in subgoals(rel.body))


def _solve_affine(rels: list[RelationDef], tables: dict[str, RelTable],
                  spec: SemiringSpec, tol: float
                  ) -> Optional[tuple[dict[str, RelTable], dict[str, RelTable]]]:
    """Solve an affine recursive group over a field with one linear solve.

    With the group's cells flattened into one vector, a round maps x to
    f(x) = A·x + b: b is f at zero, and column j of A is f at the j-th unit
    vector minus b.  If A is finite with spectral radius below 1, the rounds
    from zero converge, to the solution of (I - A)·x = b.  One round at x
    verifies it.  Returns x and that round's tables, or None if a check
    fails.
    """
    zeros = [zero_table(rel, spec) for rel in rels]
    ends = np.cumsum([t.cells.size for t in zeros])
    n = int(ends[-1])
    if n > MAX_SOLVE_CELLS or not _affine(rels):
        return None

    def unflatten(vec: np.ndarray) -> dict[str, RelTable]:
        return {t.rel: RelTable(t.rel, t.params, part.reshape(t.cells.shape))
                for t, part in zip(zeros, np.split(vec, ends[:-1]))}

    def f(vec: np.ndarray) -> np.ndarray:
        probe = tables | unflatten(vec)
        return np.concatenate([eval_relation(rel, probe, spec).cells.ravel()
                               for rel in rels])

    unit = np.eye(n, dtype=spec.dtype)
    b = f(np.zeros(n, dtype=spec.dtype))
    a = np.column_stack([f(e) - b for e in unit])
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return None
    try:
        if np.abs(np.linalg.eigvals(a)).max() >= 1:
            return None
        x = unflatten(np.linalg.solve(unit - a, b))
    except np.linalg.LinAlgError:
        return None
    new = {rel.name: eval_relation(rel, tables | x, spec) for rel in rels}
    if any(np.isnan(t.cells).any() or not np.allclose(x[name].cells, t.cells, rtol=0, atol=tol)
           for name, t in new.items()):
        return None
    return x, new


def _within_tolerance(old: dict[str, RelTable], new: dict[str, RelTable],
                      last_delta: float, tol: float) -> tuple[bool, float]:
    """Whether a round over the reals is within `tol` of the fixed point,
    and the round's largest change Δ.

    The rounds contract at a rate estimated as ρ = Δ / (the last round's
    Δ), so the fixed point is about Δ·ρ/(1 - ρ) away.  That estimate
    approaches the true rate from below, and near ρ = 1 the bound is
    steep in ρ, so the round must bring it within half of `tol`.  With no
    last round (`last_delta` nan) only Δ = 0 is close enough.
    """
    delta = max(float(np.abs(t.cells - old[name].cells).max()) for name, t in new.items())
    if delta == 0:
        return True, delta
    rho = delta / last_delta
    return bool(rho < 1 and delta * rho / (1 - rho) <= tol / 2), delta


def fixpoint(program: Program, spec: SemiringSpec, epsilon: Optional[float] = None,
             max_iters: int = 10000,
             on_round: Optional[Callable] = None) -> FixpointResult:
    """Solve the relations from all-zero tables, one call-graph component
    at a time, callees first.

    A non-recursive component is evaluated once.  Over a field, a recursive
    component of at most `MAX_SOLVE_CELLS` cells whose bodies are affine in
    its own tables is solved exactly (`_solve_affine`); that counts as one
    round.  Any other recursive component is re-evaluated, each round
    against its own previous round and the finished tables of its callees,
    until it stabilizes: exact equality for discrete semirings, and over a
    field until the contraction bound puts the round within `epsilon` of
    the fixed point (`EPSILON` when None; discrete semirings ignore it).
    ``iterations`` is the most rounds any component took.  If a component
    runs `max_iters` rounds without stabilizing, the result has
    ``converged=False`` and the components after it are solved against its
    last round.  If a round yields a nan cell (weights that overflowed),
    solving stops there: the tables so far are returned with
    ``converged=False``, ``stopped_on_nan=True`` and that component's round
    count, and the components after it keep all-zero tables.

    ``on_round(round, old, new)`` is called after every round of every
    component, before the round's tables are stored: `round` counts from
    1 within the component, `new` holds only the component's new tables,
    and `old` maps every relation to its table before the round (the dict
    is then updated in place).  A solved component's one round is the
    round that verifies the solution.
    """
    tol = EPSILON if epsilon is None else epsilon
    tables = {rel.name: zero_table(rel, spec) for rel in program.relations}
    rounds, converged = 0, True
    with np.errstate(over="ignore", invalid="ignore"):
        for rels, recursive in _call_graph_sccs(program):
            solved = _solve_affine(rels, tables, spec, tol) \
                if recursive and spec.field else None
            if solved is not None:
                x, new = solved
                tables.update(x)
                if on_round is not None:
                    on_round(1, tables, new)
                tables.update(new)
                rounds = max(rounds, 1)
                continue
            delta = math.nan
            for it in range(1, max_iters + 1 if recursive else 2):
                new = {rel.name: eval_relation(rel, tables, spec) for rel in rels}
                if on_round is not None:
                    on_round(it, tables, new)
                if any(np.isnan(t.cells).any() for t in new.values()):
                    return FixpointResult(tables | new, False, it, stopped_on_nan=True)
                if not recursive:
                    done = True
                elif spec.field:
                    done, delta = _within_tolerance(tables, new, delta, tol)
                else:
                    done = all(np.array_equal(tables[n].cells, new[n].cells) for n in new)
                tables.update(new)
                if done:
                    break
            else:
                converged = False
            rounds = max(rounds, it)
    return FixpointResult(tables, converged, rounds)
