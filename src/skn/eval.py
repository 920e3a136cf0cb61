"""Bottom-up evaluation over dense semiring arrays.

Every concrete type denotes a finite, canonically ordered list of values:
Unit has the single value sole; a sum lists all lefts (in left-component
order) then all rights; a product is first-component-major.  A value's
position in that list is its index, computed in closed form:

    idx(left v)     = idx(v)
    idx(right v)    = |t1| + idx(v)
    idx(pair v1 v2) = idx(v1) * |t2| + idx(v2)

Evaluation never lists a type's values; `type_labels` lists only their
text, in index order, for emission.

A goal under a set of in-scope variables denotes an array with one axis
per variable it mentions: conj and disj combine arrays pointwise with the
semiring operations, == and =/= are 0/1 arrays from index comparisons, a
call gathers from the called relation's table (or, if its arguments are
distinct variables, is a transposed view of it), and fresh sums an axis
away.  All but the called tables' cells depend only on the relation's
types, so `fixpoint` compiles each relation once into a `Plan`, whose
order of summing out binders is the variable-elimination order of a FAQ
query (Abo Khamis, Ngo and Rudra, PODS 2016).  A binder in two or more
subgoals is summed out by FAQ's pairwise step, run as a batched semiring
matrix product (Kepner et al., HPEC 2016) of the product of all but the
last and the last: by the spec's `matmul` kernel, or by a loop over
blocks of output rows that builds `BLOCK_CELLS` product cells at a time
and skips zero terms where zero annihilates exactly, so the whole
product is never built; a product that fits one block is built and
summed at once.  A plan's steps are functions of their operands, and
`Plan.step` runs one at once when its operands are all constants: the
masks of == and =/=, the fact tables, the factors' weights and all that
is built from them alone.  A round runs the rest against the current
tables: gathers, semiring ufuncs, reductions and contractions.

A program's tables are the least fixed point of its relations, solved by
`fixpoint` one call-graph component at a time, callees first; over a
field, a small group affine in its own tables is solved exactly, by the
first step of Newton's method for program analysis (Esparza, Kiefer and
Luttenberger, JACM 2010).  Under an idempotent addition with no `matmul`
kernel, a round that follows one that changed few cells is rebuilt from
those changes by plans compiled with the changed calls reading them:
semi-naive evaluation (Bancilhon and Ramakrishnan, SIGMOD 1986), exact
over such semirings (Abo Khamis, Ngo, Pichler, Suciu and Wang, PODS
2022), and here bit for bit the full round (`_delta_round`).  This is
the package's only evaluator; the brute-force cell-by-cell reference
lives with the tests.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, Optional, Union

import numpy as np

from .semiring import SemiringSpec, parse_weight_literal
from .syntax import (
    Binders, Call, Conj, Disj, Disunify, Factor, Facts, Fresh, Goal, LEAF_GOALS, Left, Pair,
    Prod, Program, RelationDef, Right, Sole, Sum, TyVar, TypeExpr, UNIT, Unify, ValueExpr,
    Var, chain, free_type_vars, free_vars, map_goal, subgoals, walk_goal,
)


# ---------------------------------------------------------------------------
# types as index spaces

def type_size(t: TypeExpr) -> int:
    if t.size is None:
        raise ValueError(f"type variable {free_type_vars(t)[0]} has no size")
    return t.size


def _shape(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """`sizes` as an array's shape.  One numpy could not even shape raises
    MemoryError, as one it cannot allocate does, not numpy's ValueError."""
    if math.prod(sizes) > sys.maxsize // 8:  # numpy's bound on its bytes, at eight a cell
        raise MemoryError(f"an array of {math.prod(sizes)} cells")
    return sizes


# In a type of more than this many values, a subtree of at most this many
# (but a Unit) has its labels written once per `type_labels` call and
# spliced into each place it occurs.  On a 2-core Xeon, a balanced sum of
# 4096 Units then takes a fifth of the time of walking every occurrence,
# and a right-nested sum of 512 about 7% more, for the copy of its last 64
# labels; at 8 or 16 the right-nested sum took 30% more.
SPLICED_VALUES = 64


def type_labels(t: TypeExpr) -> list[str]:
    """The text of each value of `t`, in index order, as `render_value`
    writes it.  Each is written top-down, its prefix, then `sole`, then its
    suffix; a sum's branches share the text around it, so a sum's labels
    take time linear in their text.  A product's second component is
    written after each label of its first.  In a type of more than
    `SPLICED_VALUES` values, each subtree of at most that many, but a Unit,
    has its labels written once, by a call of its own, and spliced between
    each prefix and suffix, so a subtree shared by many branches, as in a
    balanced sum, or a product's second component, is not walked at each;
    in a smaller type the bound is 0, so none is.  Iterative, so depth is
    unbounded."""
    if t.size is None:
        raise ValueError(f"type variable {free_type_vars(t)[0]} has no values")
    bound = SPLICED_VALUES if t.size > SPLICED_VALUES else 0
    labels: list[str] = []
    spliced: dict[TypeExpr, list[str]] = {}  # each small subtree's labels
    stack: list[tuple] = [(t, "", "", None)]  # (type, text before, text after, pending)
    while stack:
        u, before, after, pending = stack.pop()
        if u is UNIT:  # its one label, with no tuple to hold it
            if pending is None:
                labels.append(before + "sole" + after)
            else:
                stack.append((pending[0], before + "sole" + after, *pending[1:]))
            continue
        if u.size > bound:
            if isinstance(u, Sum):
                stack += ((u.right, before + "(right ", ")" + after, pending),
                          (u.left, before + "(left ", ")" + after, pending))
            else:  # a product, whose second component waits, with its text after
                stack.append((u.first, before + "(pair ", " ", (u.second, ")" + after, pending)))
            continue
        if (inner := spliced.get(u)) is None:
            inner = spliced[u] = type_labels(u)
        texts = [before + text + after for text in inner]
        if pending is None:
            labels += texts
        else:  # each is a first component: write the second after it
            stack += [(pending[0], text, *pending[1:]) for text in reversed(texts)]
    return labels


def type_label(t: TypeExpr, i: int) -> str:
    """`type_labels(t)[i]` alone, read from `i` in one loop down the type:
    the inverse of `_index_factor`."""
    out, stack = [], [(t, i)]  # (type, index) to write, or (text, None)
    while stack:
        u, i = stack.pop()
        if isinstance(u, Sum):
            left = i < u.left.size
            stack += ((")", None), (u.left, i) if left else (u.right, i - u.left.size),
                      ("(left " if left else "(right ", None))
        elif isinstance(u, Prod):
            stack += ((")", None), (u.second, i % u.second.size), (" ", None),
                      (u.first, i // u.second.size), ("(pair ", None))
        else:
            out.append(u if isinstance(u, str) else "sole")
    return "".join(out)


# ---------------------------------------------------------------------------
# relation tables

@dataclass
class RelTable:
    rel: str
    params: tuple[tuple[str, TypeExpr], ...]
    cells: np.ndarray


def zero_table(rel: RelationDef, spec: SemiringSpec) -> RelTable:
    sizes = _shape(tuple(type_size(ty) for _, ty in rel.params))
    cells = np.full(sizes, spec.zero, dtype=spec.dtype)
    return RelTable(rel.name, rel.params, cells)


# ---------------------------------------------------------------------------
# index arrays

def _grid(scope: dict[str, TypeExpr], names) -> tuple[tuple[str, ...], dict, tuple[int, ...]]:
    """The variables of `scope` among `names`, in scope order; each as the
    index array along its own axis; and the shape of their grid."""
    dims = tuple(d for d in scope if d in names)
    shape = _shape(tuple(scope[d].size for d in dims))
    return dims, dict(zip(dims, np.indices(shape, dtype=np.int64, sparse=True))), shape


def _index_factor(v: ValueExpr, t: TypeExpr,
                  index: dict[str, np.ndarray]) -> Union[int, np.ndarray]:
    """Integer array giving the index of this value under each assignment,
    where `index` holds the index array of each variable; a plain int for
    a ground value.  A run of sum constructors is walked in a loop, and a
    pair's parts with an explicit stack, so depth is unbounded."""
    done: list = []
    stack: list = [(v, t)]  # (value, type) to index, or (offset, size) joining a pair's parts
    while stack:
        v, t = stack.pop()
        if isinstance(v, int):  # a pair's parts are done: its offset and second size
            ib, ia = done.pop(), done.pop()
            done.append(v + ia * t + ib)
            continue
        offset = 0
        while isinstance(v, (Left, Right)):
            if isinstance(v, Right):
                offset += t.left.size
                t = t.right
            else:
                t = t.left
            v = v.inner
        match v:
            case Var(name):
                done.append(index[name] + offset if offset else index[name])
            case Sole():
                done.append(offset)
            case Pair(a, b):
                stack += ((offset, t.second.size), (b, t.second), (a, t.first))
            case _:
                raise TypeError(v)
    return done[0]


def _canonical_index(t: TypeExpr, caller: TypeExpr, target: TypeExpr, idx: np.ndarray,
                     mask: Union[bool, np.ndarray], holes: dict) -> np.ndarray:
    """The index in `target` of the canonical copy of a value of generic
    type `t`, given its index `idx` in `caller`.

    The copy keeps the value's shell and replaces its hole of each type
    variable by the number of distinct values that variable's holes took
    before that hole's first occurrence.  `mask` says where this
    position is realized (its sum branches were taken); `holes` maps each
    type variable to the holes seen so far, with their masks and numbers,
    and the count of distinct values among them.  Iterative, holes left to
    right, so depth is unbounded."""
    done: list = []
    stack: list = [(t, caller, target, idx, mask)]  # to index, or (left, size) joining parts
    while stack:
        match stack.pop():
            case (left, size):  # a sum's parts, `left` its mask, or a pair's, `left` None
                ib, ia = done.pop(), done.pop()
                done.append(ia * size + ib if left is None else np.where(left, ia, size + ib))
            case (t, _, _, idx, _) if t.size is not None:  # ground: a copy has the caller's value
                done.append(idx)
            case (TyVar(name), _, _, idx, mask):
                seen, count = holes.get(name, ([], 0))
                num, first = count, mask
                for value, m, n in seen:
                    same = m & mask & (value == idx)
                    num = np.where(same, n, num)
                    first = first & ~same
                seen.append((idx, mask, num))
                holes[name] = (seen, count + first)
                done.append(num)
            case (Sum(a, b), caller, target, idx, mask):
                left = idx < caller.left.size
                stack += ((left, target.left.size),
                          (b, caller.right, target.right, idx - caller.left.size, mask & ~left),
                          (a, caller.left, target.left, idx, mask & left))
            case (Prod(a, b), caller, target, idx, mask):
                n = caller.second.size
                stack += ((None, target.second.size),
                          (b, caller.second, target.second, idx % n, mask),
                          (a, caller.first, target.first, idx // n, mask))
    return done[0]


def _gather(g: Union[Call, Fresh], scope: dict[str, TypeExpr], tables: dict[str, RelTable]
            ) -> tuple[tuple[str, ...], str, tuple[np.ndarray, ...]]:
    """A call, or a large-enough wrapper (a fresh with a `wrap` record and
    the target's call the first operand of its body's conj chain), as one
    gather: its variables, the relation it reads, and the index arrays into
    that relation's table.  The wrapper sums the target's weight over every
    copy of the caller's arguments with their equality pattern; the target
    has one weight at all of them, and addition is idempotent on this path,
    so the sum is the weight at one canonical copy (`_canonical_index`)."""
    if isinstance(g, Call):
        call = g
        dims, index, shape = _grid(scope, [d for a in g.args for d in free_vars(a)])
    else:
        call, generic = chain(g.body, Conj)[0], dict(g.wrap)
        dims, axes, shape = _grid(scope, generic)
        holes: dict = {}
        index = {x2: _canonical_index(generic[x], scope[x], target, axes[x], True, holes)
                 for (x, _), (x2, target) in zip(g.wrap, g.binders)}
    return dims, call.rel, tuple(np.broadcast_to(_index_factor(a, ty, index), shape)
                                 for a, (_, ty) in zip(call.args, tables[call.rel].params))


def _fact_table(g: Facts, scope: dict[str, TypeExpr], spec: SemiringSpec
                ) -> tuple[tuple[str, ...], np.ndarray]:
    """A disjunction of ground facts as one scatter of its weights into a
    zero table: its variables, in scope order, and its cells.  A fact's
    weight is its factor's, or one; duplicate facts combine by semiring
    addition, last to first, as the right-nested chain adds them.  Each
    column's type is its variable's in `scope`; each distinct value node is
    indexed once at each type, and each distinct literal read once."""
    dims, rows = tuple(d for d in scope if d in g.rows[0][0]), g.rows[::-1]
    columns, index = [], {}  # index: (id(value), type) -> its index; `g` keeps each value
    for d in dims:
        ty = scope[d]
        for pins, _ in rows:
            v = pins[d][0]
            if (i := index.get((id(v), ty))) is None:
                i = index[id(v), ty] = _index_factor(v, ty, {})
            columns.append(i)
    cells = np.full(_shape(tuple(scope[d].size for d in dims)), spec.zero, dtype=spec.dtype)
    read = {lit: parse_weight_literal(lit, spec)
            for lit in dict.fromkeys(lit for _, lit in rows if lit is not None)}
    weights = [spec.one if lit is None else read[lit] for _, lit in rows]
    spec.add.at(cells, tuple(np.array(columns).reshape(len(dims), len(rows))),
                np.array(weights, dtype=spec.dtype))
    return dims, cells


# ---------------------------------------------------------------------------
# evaluation plans

Term = tuple[tuple[str, ...], Union[np.ndarray, int]]  # axes' variables; constant or slot
BLOCK_CELLS = 2 ** 16  # the most product cells a contraction's loop builds at once, or one row


def _view(dims: tuple[str, ...], dims_out: tuple[str, ...],
          scope: dict[str, TypeExpr]) -> Optional[tuple[int, ...]]:
    """The shape that lays an array over `dims` out over `dims_out`, with
    a unit axis for each variable it lacks, or None if it is already laid
    out so.  Both follow scope order, so no axis moves (see `Plan`)."""
    if dims == dims_out:
        return None
    assert [d for d in dims_out if d in dims] == list(dims), "axes out of scope order"
    return tuple(scope[d].size if d in dims else 1 for d in dims_out)


def _take(index: tuple[np.ndarray, ...], cells: np.ndarray) -> np.ndarray:
    return np.asarray(cells[index])


def _combine(op, v1: Optional[tuple], v2: Optional[tuple], a1: np.ndarray, a2: np.ndarray):
    return op(a1 if v1 is None else a1.reshape(v1), a2 if v2 is None else a2.reshape(v2))


def _lay_out(view: tuple[int, ...], shape: tuple[int, ...], arr: np.ndarray) -> np.ndarray:
    return np.broadcast_to(arr.reshape(view), shape).copy()


def _loop_matmul(spec: SemiringSpec, rows: int, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The semiring product of stacks of matrices, m1 (b, l, k) and m2
    (b, k, r), for a spec without a `matmul` kernel.  Its output rows, over
    b and l, go `rows` a block, `per` whole matrices or `step` rows of one:
    a block's rows of m1 are multiplied with m2 into one buffer, which one
    `add.reduce` over k sums into the block's slice of the result.  Under an
    idempotent addition, whose carriers here have a zero that annihilates
    exactly, a block with no value of k at which one of its rows of m1 is
    not zero is zero, and one with at most half of k such values gathers
    and multiplies only those; past half, gathering costs more than the
    zero terms it saves.  Real keeps every term, since 0 * inf is nan."""
    b, l, k = m1.shape
    r = m2.shape[2]
    per, step = max(1, rows // l), min(rows, l)
    starts_b, starts_l = np.arange(0, b, per), np.arange(0, l, step)
    sizes = np.outer(np.minimum(per, b - starts_b), np.minimum(step, l - starts_l)).ravel()
    if spec.idempotent_add:  # each block's kept values of k, padded with zero rows to whole blocks
        padded = np.zeros((starts_b.size * per, starts_l.size * step, k), bool)
        padded[:b, :l] = m1 != spec.zero
        keep = padded.reshape(starts_b.size, per, starts_l.size, step, k).any(axis=(1, 3))
        keep = keep.reshape(sizes.size, k)
    else:
        keep = np.ones((sizes.size, k), bool)
    bounds = [(i, i + per, j, j + step) for i in range(0, b, per) for j in range(0, l, step)]
    kept, out = keep.sum(axis=1).tolist(), np.empty((b, l, r), spec.dtype)
    buf = np.empty(int(sizes.max()) * k * r, spec.dtype)
    for n, (i0, i1, j0, j1) in enumerate(bounds):
        if not kept[n]:
            out[i0:i1, j0:j1] = spec.zero
            continue
        x, y = m1[i0:i1, j0:j1], m2[i0:i1]
        if 2 * kept[n] <= k:
            values = np.flatnonzero(keep[n])
            x, y = x[:, :, values], y[:, values]
        shape = (*x.shape, r)
        product = spec.mul(x[..., None], y[:, None], out=buf[:math.prod(shape)].reshape(shape))
        spec.add.reduce(product, axis=2, out=out[i0:i1, j0:j1])
    return out


def _contract(spec: SemiringSpec, a1: np.ndarray, a2: np.ndarray, how: tuple) -> np.ndarray:
    """The sum over one axis of the product of two arrays, as a semiring
    matrix product (`Plan.eliminate`).  Each operand is transposed and
    reshaped to a stack of matrices, `a1` to (batch, left, binder) and `a2`
    to (batch, binder, right), where the batch axes are the result's axes
    that both have and the left and right axes those that only one has.  The
    spec's `matmul` kernel multiplies them, or `_loop_matmul` where it has
    none, and the result is laid back out over its axes in scope order."""
    axes1, axes2, (b, l, k, r), lay, axes, rows = how
    m1, m2 = a1.transpose(axes1).reshape(b, l, k), a2.transpose(axes2).reshape(b, k, r)
    out = _loop_matmul(spec, rows, m1, m2) if spec.matmul is None else spec.matmul(m1, m2)
    return out.reshape(lay).transpose(axes)


@dataclass
class Plan:
    """One relation's body compiled for one semiring by `compile_relation`.

    A step is a function and its operands, each a constant, an earlier
    step's slot (an int) or a table's name (a str): a gather (`_take`) or a
    transposed view of a table, a semiring ufunc under fixed views
    (`_combine`), a sum over one axis, a contraction (`_contract`), or the
    body laid out over the parameters (`_lay_out`) or copied from a view.  A run fills one slot per step; the table is operand
    `out`.  A subgoal being compiled is a `Term`, whose axes follow scope
    order (`_grid`, `fold`, `eliminate` and `_fact_table` build them so),
    so a view is a reshape that only adds unit axes (`_view`).
    """
    name: str
    params: Binders
    spec: SemiringSpec
    shape: tuple[int, ...]
    steps: list[tuple[Callable, tuple]] = field(default_factory=list)
    out: Union[np.ndarray, int] = 0
    sparse: set[int] = field(default_factory=set)  # the slots built from a Δ table

    def step(self, fn: Callable, *operands) -> Union[np.ndarray, int]:
        """`fn(*operands)` if every operand is a constant, else a new step's slot."""
        if {int, str}.isdisjoint(map(type, operands)):
            return fn(*operands)
        self.steps.append((fn, operands))
        if any(a in self.sparse if type(a) is int else type(a) is str and a.startswith(DELTA)
               for a in operands):
            self.sparse.add(len(self.steps) - 1)
        return len(self.steps) - 1

    def fold(self, terms: list[Term], op, scope: dict[str, TypeExpr]) -> Term:
        """Combine terms with `op`, first to last."""
        (dims, acc), terms = terms[0], terms[1:]
        for d2, a2 in terms:
            d1, dims = dims, tuple(d for d in scope if d in dims or d in d2)
            _shape(tuple(scope[d].size for d in dims))  # numpy must be able to shape the result
            acc = self.step(partial(_combine, op, _view(d1, dims, scope), _view(d2, dims, scope)),
                            acc, a2)
        return dims, acc

    def eliminate(self, terms: list[Term], binders: list[str], scope: dict[str, TypeExpr]) -> Term:
        """Sum `binders` out of a product of terms, smallest product first,
        ties in binder order.  A product of more than `BLOCK_CELLS` cells, or
        one with a term built from a Δ table, is not built: the product of
        all but the last term that has the binder is contracted with the
        last as a semiring matrix product (`_contract`), whose output rows
        the generic loop takes `BLOCK_CELLS // row` at a time, one block
        after another.  Of two terms, one built from a Δ table goes first,
        where the loop's zero skip reads it; `mul` commutes, but three or
        more keep their order, since re-associating `mul` could move a
        cell's last bits.  A smaller product is built and summed at once; an
        unused binder, as the scalar sum of |type| ones."""
        spec, pending = self.spec, list(binders)

        def cells(b: str) -> int:  # of the product of the terms that have `b`
            return math.prod(scope[d].size for d in
                             {d for ds, _ in terms if b in ds for d in ds} or {b})

        while pending:
            name = min(pending, key=cells)
            pending.remove(name)
            group, product = [t for t in terms if name in t[0]], cells(name)
            sparse = [type(a) is int and a in self.sparse for _, a in group]
            blocked = len(group) > 1 and (product > BLOCK_CELLS or any(sparse))
            if sparse == [False, True]:
                group.reverse()
            terms = [t for t in terms if name not in t[0]]
            if not group:  # the sum of |type| ones: `one` if addition is idempotent
                terms.append(((), np.asarray(spec.one if spec.idempotent_add else
                                             scope[name].size * spec.one, dtype=spec.dtype)))
            elif blocked:
                (d1, a1), (d2, a2) = self.fold(group[:-1], spec.mul, scope), group[-1]
                rest = tuple(d for d in scope if d != name and (d in d1 or d in d2))
                _shape(tuple(scope[d].size for d in rest))  # numpy must be able to shape the result
                batch = [d for d in rest if d in d1 and d in d2]
                left, right = [d for d in rest if d not in d2], [d for d in rest if d not in d1]
                b, l, k, r = (math.prod(scope[d].size for d in ds) for ds in (batch, left, [name], right))
                order = batch + left + right
                how = ([d1.index(d) for d in batch + left + [name]],
                       [d2.index(d) for d in batch + [name] + right], (b, l, k, r),
                       tuple(scope[d].size for d in order), [order.index(d) for d in rest],
                       max(1, BLOCK_CELLS // (k * r)))
                terms.append((rest, self.step(partial(_contract, spec, how=how), a1, a2)))
            else:
                dims, arr = self.fold(group, spec.mul, scope)
                terms.append((tuple(d for d in dims if d != name),
                              self.step(partial(spec.add.reduce, axis=dims.index(name)), arr)))
        return self.fold(terms, spec.mul, scope)


def compile_relation(rel: RelationDef, tables: dict[str, RelTable], spec: SemiringSpec) -> Plan:
    """Compile `rel`'s body for `spec`, against the parameters (not the
    cells) of the `tables` it calls.

    Conj and disj chains are taken apart by `syntax.chain` and folded last
    to first, in the order of their right-nested nodes; a fresh, and any
    directly inside it, sums its binders out factor by factor
    (`Plan.eliminate`); a fact table (`syntax.Facts`) is one scatter
    (`_fact_table`), and a call or a large-enough wrapper one gather
    (`_gather`), or, for a call of distinct variables, one transposed view
    of its table; a body that is just such a view is copied, so no table
    shares another's cells.  The goal is walked with an explicit stack, so
    its nesting is not bounded by the recursion limit."""
    plan = Plan(rel.name, rel.params, spec, tuple(type_size(ty) for _, ty in rel.params))
    done: list[Term] = []
    work: list[tuple] = [(rel.body, dict(rel.params))]
    while work:
        g, scope = work.pop()
        if callable(g):  # the fold of a chain or a fresh, its operands done
            arg, n, scope = scope
            done[-n:] = [g(done[-n:], arg, scope)]
        elif isinstance(g, Factor):
            done.append(((), np.asarray(parse_weight_literal(g.literal, spec), dtype=spec.dtype)))
        elif isinstance(g, (Unify, Disunify)):
            assert g.ty is not None, "goal must be type-checked"
            _shape((g.ty.size,))  # its values' indices, which int64 arrays must hold
            dims, axes, shape = _grid(scope, free_vars(g.v1) + free_vars(g.v2))
            i1, i2 = _index_factor(g.v1, g.ty, axes), _index_factor(g.v2, g.ty, axes)
            hit = np.broadcast_to((i1 == i2) if isinstance(g, Unify) else (i1 != i2), shape)
            done.append((dims, np.where(hit, spec.one, spec.zero).astype(spec.dtype, copy=False)))
        elif isinstance(g, Call) and len({a.name for a in g.args if isinstance(a, Var)}) == len(g.args):
            args = [a.name for a in g.args]  # distinct variables: a view of the table
            dims = tuple(d for d in scope if d in args)
            done.append((dims, plan.step(partial(np.transpose, axes=[args.index(d) for d in dims]),
                                         g.rel)))
        elif isinstance(g, Call) or isinstance(g, Fresh) and g.wrap is not None:
            dims, name, index = _gather(g, scope, tables)
            done.append((dims, plan.step(partial(_take, index), name)))
        elif isinstance(g, Facts):
            done.append(_fact_table(g, scope, spec))
        elif isinstance(g, (Conj, Disj)):
            parts = chain(g, type(g))
            # pushed first to last, so done and folded last to first
            work.append((plan.fold, (spec.mul if isinstance(g, Conj) else spec.add,
                                     len(parts), scope)))
            work += ((p, scope) for p in parts)
        elif isinstance(g, Fresh):
            binders, scope = [], dict(scope)
            while isinstance(g, Fresh) and g.wrap is None:  # a wrapper: the gather
                assert scope.keys().isdisjoint(dict(g.binders)), "shadowed binder survived parsing"
                binders += (x for x, _ in g.binders)
                scope.update(g.binders)
                g = g.body
            parts = chain(g, Conj)
            work.append((plan.eliminate, (binders, len(parts), scope)))
            work += ((p, scope) for p in reversed(parts))
        else:
            raise TypeError(g)
    dims, out = done.pop()
    view = _view(dims, tuple(x for x, _ in rel.params), dict(rel.params))
    if view is not None:
        out = plan.step(partial(_lay_out, view, plan.shape), out)
    elif type(out) is int and plan.steps[out][0].func is np.transpose:  # another table's cells
        out = plan.step(np.copy, out)
    plan.out = out
    return plan


def eval_relation(plan: Plan, tables: dict[str, RelTable], spec: SemiringSpec) -> RelTable:
    """Tabulate one relation's body over its full argument grid by calling
    each step of its plan for `spec` on its operands, read from `tables`
    and popped from their slots, so each is freed once used; a constant
    table is copied."""
    slots: dict[int, np.ndarray] = {}
    for out, (fn, operands) in enumerate(plan.steps):
        slots[out] = fn(*[slots.pop(a) if type(a) is int else
                          tables[a].cells if type(a) is str else a for a in operands])
    cells = slots.pop(plan.out) if type(plan.out) is int else np.array(plan.out)
    return RelTable(plan.name, plan.params, cells)


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
MAX_ITERS = 10000  # the most rounds of one component, unless another bound is given


def _affine(rels: list[RelationDef]) -> bool:
    """Whether the bodies of a group are affine in the group's own tables,
    by syntax: no conj chain has two operands that call into the group, so
    no body's degree in them is above one.  A call is linear in its table,
    disj and fresh add, and conj then only scales.  One walk per body,
    which counts each open node's subgoals that call into the group."""
    names = {rel.name for rel in rels}
    for rel in rels:
        open_: list[list] = [[None, 0]]  # each node entered and not left: [its type, that count]
        for h, entering in walk_goal(rel.body):
            if entering and type(h) not in LEAF_GOALS:
                open_.append([type(h), 0])
                continue
            kind, calls = open_.pop() if not entering else (None, type(h) is Call and h.rel in names)
            if kind is Conj and calls > 1:
                return False
            open_[-1][1] += calls > 0
    return True


def _solve_affine(rels: list[RelationDef], plans: list[Plan], tables: dict[str, RelTable],
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
    ends = np.cumsum([math.prod(plan.shape) for plan in plans])
    n = int(ends[-1])
    if n > MAX_SOLVE_CELLS or not _affine(rels):
        return None

    def unflatten(vec: np.ndarray) -> dict[str, RelTable]:
        return {p.name: RelTable(p.name, p.params, part.reshape(p.shape))
                for p, part in zip(plans, np.split(vec, ends[:-1]))}

    def f(vec: np.ndarray) -> np.ndarray:
        probe = tables | unflatten(vec)
        return np.concatenate([eval_relation(plan, probe, spec).cells.ravel()
                               for plan in plans])

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
    new = {plan.name: eval_relation(plan, tables | x, spec) for plan in plans}
    if not all(np.allclose(x[name].cells, t.cells, rtol=0, atol=tol) for name, t in new.items()):
        return None  # a nan cell is never close
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


# A Δ table is a group table's last changes, under its relation's name
# after this prefix; a relation's name holds no space, so none is a Δ's.
DELTA = "Δ "
# A round of an idempotent group is run from the last round's changes
# (`_delta_round`) when they are at most this fraction of the group's cells
# that are not zero.  A block of a Δ plan's join multiplies the values of
# the binder at which one of its rows of Δ is not zero, so changes
# scattered over a few percent of the cells already reach most blocks.  On
# `paths`' 128-node `dist` (2-core Xeon), with changes scattered at random
# over its last table, a Δ round took 0.40-0.52 of a full round at 1/256
# of the cells, 0.79-0.95 at 1/32 and 1.21-1.29 at 1/16.  (`paths` changes
# 1-133 of 16,384 cells in its last round but one and thousands in each
# round before it; `reach` over chain-n changes one cell a round.)
DELTA_FRACTION = 1 / 32


def _annihilates(spec: SemiringSpec, cells: np.ndarray) -> bool:
    """Whether zero times each cell is zero: not for a value outside the
    carrier, such as nan or the -inf of an overflowed min-tropical sum."""
    return bool(spec.mul(spec.zero, spec.add.reduce(cells, axis=None)) == spec.zero)


def _delta_plans(rels: list[RelationDef], tables: dict[str, RelTable],
                 spec: SemiringSpec) -> dict[str, list[Plan]]:
    """Each relation's Δ plans, compiled against `tables` with the Δ
    tables: for each call into the group (in a large-enough wrapper too) in
    a disjunct of the body's top `disj` chain, that disjunct with the call
    reading its callee's Δ table.  A disjunct with no such call adds nothing
    to a round that the round before has not added.  None are compiled if
    zero does not annihilate every cell of a table they read."""
    names = {rel.name for rel in rels}
    plans: dict[str, list[Plan]] = {rel.name: [] for rel in rels}
    for rel in rels:
        for part in chain(rel.body, Disj):
            calls = sum(isinstance(g, Call) and g.rel in names for g in subgoals(part))
            plans[rel.name] += (compile_relation(RelationDef(rel.name, rel.tyvars, rel.params,
                                                             _reading_delta(part, names, i)),
                                                 tables, spec) for i in range(calls))
    reads = {a for group in plans.values() for plan in group for _, operands in plan.steps
             for a in operands if type(a) is str}
    return plans if all(_annihilates(spec, tables[name].cells) for name in reads) else {}


def _reading_delta(g: Goal, names: set[str], i: int) -> Goal:
    """`g` with its `i`-th call into `names`, in pre-order, reading its
    callee's Δ table."""
    seen = itertools.count()
    return map_goal(g, lambda h, _: Call(DELTA + h.rel, h.args, h.subst)
                    if isinstance(h, Call) and h.rel in names and next(seen) == i else h)


def _delta_round(plans: dict[str, list[Plan]], tables: dict[str, RelTable],
                 deltas: dict[str, RelTable], spec: SemiringSpec
                 ) -> Optional[dict[str, RelTable]]:
    """One round of an idempotent group from the last round's changes: each
    relation's table plus its Δ plans' (`_delta_plans`), run against the
    tables and the Δ tables; None if a cell is nan.  Otherwise it gives the
    full round's bits: each round's tables are the last round's plus more
    terms, so a term the full round builds from unchanged cells is in them
    already, and every other term is built by a Δ plan from the same
    operands in the same order.  A nan can come from a zero of Δ, where the
    full round reads a cell that is not zero, times a sum of other calls
    that overflowed to -inf."""
    reads = tables | deltas
    new = {name: RelTable(name, tables[name].params,
                          reduce(spec.add, (eval_relation(p, reads, spec).cells for p in group),
                                 tables[name].cells))
           for name, group in plans.items()}
    return None if any(np.isnan(t.cells).any() for t in new.values()) else new


def _deltas(old: dict[str, RelTable], new: dict[str, RelTable], spec: SemiringSpec
            ) -> tuple[bool, Optional[dict[str, RelTable]]]:
    """Whether a round changed no cell: the exact stop test of a discrete
    semiring's rounds.  If it changed some, but at most `DELTA_FRACTION` of
    the cells that are not zero, under an idempotent addition with no
    `matmul` kernel, and zero annihilates every cell, also its Δ tables:
    each changed cell's new value, and zero elsewhere."""
    changed = {name: t.cells != old[name].cells for name, t in new.items()}
    count = sum(map(np.count_nonzero, changed.values()))
    cells = [t.cells for t in new.values()]
    # the cells that are not zero are at most all cells: a cheap test first
    if count == 0 or not spec.idempotent_add or spec.matmul is not None \
            or count > DELTA_FRACTION * sum(c.size for c in cells) \
            or count > DELTA_FRACTION * sum(np.count_nonzero(c != spec.zero) for c in cells) \
            or not all(_annihilates(spec, c) for c in cells):
        return count == 0, None
    return False, {DELTA + name: RelTable(DELTA + name, t.params,
                                          np.where(changed[name], t.cells, spec.zero))
                   for name, t in new.items()}


def fixpoint(program: Program, spec: SemiringSpec, epsilon: Optional[float] = None,
             max_iters: int = MAX_ITERS,
             on_round: Optional[Callable] = None) -> FixpointResult:
    """Solve the relations from all-zero tables, one call-graph component
    at a time, callees first, running each relation's plan once a round.

    A non-recursive component takes one round.  Over a field, a recursive
    component of at most `MAX_SOLVE_CELLS` cells whose bodies are affine in
    its own tables is solved exactly (`_solve_affine`), then runs one round
    of the common loop from the solution: the round that verified it.  Any
    other recursive component is re-evaluated against its own previous
    round and its callees' finished tables until it stabilizes: for a
    discrete semiring, until a round changes no cell (`_deltas`, the one
    exact test), and over a field until the contraction bound puts the
    round within `epsilon` of the fixed point (`EPSILON` when None;
    discrete semirings ignore it).  Under an idempotent addition with no
    `matmul` kernel, a round that follows one that changed at most
    `DELTA_FRACTION` of the group's non-zero cells is run from those
    changes (`_delta_round`), with the full round's bits, while zero
    annihilates every cell the group reads; one that yields nan is run
    again in full.  ``iterations`` is the most rounds any component took,
    each such round counted as one.  A component that runs `max_iters`
    (`MAX_ITERS` by default) rounds without stabilizing gives
    ``converged=False``, and later components are solved against its last
    round.  A round that yields a nan cell (weights that overflowed) stops
    solving: the tables so far are returned with ``converged=False``,
    ``stopped_on_nan=True`` and that component's round count, and later
    components keep all-zero tables.

    ``on_round(round, old, new)`` is called after every round of every
    component, before the round's tables are stored: `round` counts from
    1 within the component, `new` holds only the component's new tables
    (whole, in a round run from changes too), and `old` maps every relation
    to its table before the round (the dict is then updated in place).
    """
    tol = EPSILON if epsilon is None else epsilon
    tables = {rel.name: zero_table(rel, spec) for rel in program.relations}
    rounds, converged = 0, True
    with np.errstate(over="ignore", invalid="ignore"):
        for rels, recursive in _call_graph_sccs(program):
            plans = [compile_relation(rel, tables, spec) for rel in rels]
            solved = _solve_affine(rels, plans, tables, spec, tol) \
                if recursive and spec.field else None
            if solved is not None:  # its one round starts from the solution
                tables.update(solved[0])
            delta, deltas, delta_plans = math.nan, None, None
            for it in range(1, max_iters + 1 if recursive else 2):
                new = None
                if deltas is not None:  # a Δ round; one that yields nan is run in full
                    if delta_plans is None:
                        delta_plans = _delta_plans(rels, tables | deltas, spec)
                    new = _delta_round(delta_plans, tables, deltas, spec) if delta_plans else None
                if new is None:
                    new = solved[1] if solved is not None else \
                        {plan.name: eval_relation(plan, tables, spec) for plan in plans}
                if on_round is not None:
                    on_round(it, tables, new)
                if any(np.isnan(t.cells).any() for t in new.values()):
                    return FixpointResult(tables | new, False, it, stopped_on_nan=True)
                if not recursive or solved is not None:
                    done = True
                elif spec.field:
                    done, delta = _within_tolerance(tables, new, delta, tol)
                else:
                    done, deltas = _deltas(tables, new, spec)
                tables.update(new)
                if done:
                    break
            else:
                converged = False
            rounds = max(rounds, it)
    return FixpointResult(tables, converged, rounds)
