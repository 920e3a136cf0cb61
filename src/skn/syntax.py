"""AST definitions and the s-expression concrete syntax.

Programs are sequences of ``defrel`` forms::

    (defrel (swap (forall a b) (x : (Sum a b)) (y : (Sum b a)))
      (disj
        (fresh ((v : a)) (conj (== x (left v)) (== y (right v))))
        (fresh ((w : b)) (conj (== x (right w)) (== y (left w))))))

The ``(forall ...)`` group is optional; when omitted, type variables are
collected from the parameter types in first-occurrence order.  Parameter
lists may be written flat (as above) or wrapped in one extra pair of
parens.  ``conj``/``disj`` take two or more subgoals and right-nest into
the binary AST forms; ``fresh`` may bind several variables, all in one
`Fresh`.  Sum constructors take an optional brace-wrapped annotation,
``(left {(Sum Unit Unit)} sole)``; when it is absent the type checker
infers the sum type without writing it in.  Comments run from ``;`` to end of line.

The text is split into tokens by `str.split`, once its comments are
dropped, each bracket, brace and ``:`` is padded with spaces and each tab,
CR and LF is made a space; a recursive-descent reader builds the AST
from them.  Only an error's position needs a regex.  The reader renames
apart any ``fresh`` binder that would shadow an enclosing variable as it
goes, so later passes can treat variable names as unique within one
relation body.  A bracketed value or type form that repeats is read once
per file, except for a value form while a shadowing binder is renamed.
A ``disj`` whose every disjunct is a ground fact is read as one leaf goal,
`Facts`, recognized once by `as_facts`: each later pass works on its rows,
once per distinct form, and none walks the disjuncts again.

Goals are walked by one iterative traversal, `walk_goal`, which yields
each leaf once and each other node on entry and exit.  `subgoals`,
`map_goal` and `render_goal` are built on it, and the type checker and
the lowering walk goals only through these.  `nest` builds ``conj``/``disj`` chains.
Types and values are folded bottom-up, also without recursion, by one
`fold`; the renderers, a type's ``repr``, `free_vars`, `map_value` and
`typecheck.apply_subst` are built on it.  A value or a type is walked
down a type, pairing each node with the part it sits at, by one
iterative `along`; the checker's `type_of_value` and `match_type` and
the lowering's `generic_arg_env` are built on it.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# types
#
# Types are hash-consed: building a type equal to one that exists returns
# that object.  So equal types are one object, `==` and `hash` are the
# object's identity, and two facts about a node are computed once, when it
# is built: its `size`, the number of its values (None when a type variable
# occurs below it), and its `holes`, how many holes of each type variable a
# value of it can have, in first-occurrence order.  A sum adds sizes and
# shares holes between its branches, since a value takes one branch; a
# product multiplies sizes and adds holes.  `fold` computes anything else
# built bottom-up from a type, without recursion.

_TYPES: dict[tuple, "TypeExpr"] = {}


def _intern(cls, *children) -> "TypeExpr":
    """The one `cls` node with these children, built on first request."""
    key = (cls, *children)
    t = _TYPES.get(key)
    if t is None:
        size, holes = (None, {children[0]: 1}) if cls is TyVar else (1, {})
        if len(children) == 2:  # a Sum or Prod, with its (size, holes) combine pair
            (a, b), (size_op, holes_op) = children, cls._combine
            size = None if a.size is None or b.size is None else size_op(a.size, b.size)
            holes = dict(a.holes)
            for name, n in b.holes.items():
                holes[name] = holes_op(holes.get(name, 0), n)
        t = _TYPES[key] = object.__new__(cls)
        for name, value in zip((*cls.__match_args__, "size", "holes"), (*children, size, holes)):
            object.__setattr__(t, name, value)
    return t


class _Type:
    """What every type node has, set by `_intern`."""
    size: Optional[int]
    holes: dict[str, int]  # read-only

    def __reduce__(self) -> tuple:
        """Pickle and copy a type as a call that rebuilds it, so the copy
        is the interned node."""
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        """The dataclass form, such as ``Sum(left=Unit(), right=TyVar(name='a'))``."""
        def node(t: TypeExpr, a: str, b: str) -> str:
            x, y = t.__match_args__
            return f"{type(t).__name__}({x}={a}, {y}={b})"
        return fold(self, lambda t: f"TyVar(name={t.name!r})" if isinstance(t, TyVar)
                    else "Unit()", node)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Unit(_Type):
    def __new__(cls) -> "Unit":
        return _intern(cls)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Sum(_Type):
    left: "TypeExpr"
    right: "TypeExpr"
    _combine = (operator.add, max)  # a value takes one branch, so branches share holes

    def __new__(cls, left: "TypeExpr", right: "TypeExpr") -> "Sum":
        return _intern(cls, left, right)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Prod(_Type):
    first: "TypeExpr"
    second: "TypeExpr"
    _combine = (operator.mul, operator.add)

    def __new__(cls, first: "TypeExpr", second: "TypeExpr") -> "Prod":
        return _intern(cls, first, second)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class TyVar(_Type):
    name: str

    def __new__(cls, name: str) -> "TyVar":
        return _intern(cls, name)


TypeExpr = Union[Unit, Sum, Prod, TyVar]
UNIT = Unit()


def free_type_vars(*ts: TypeExpr) -> list[str]:
    """All type-variable names in the types `ts`, in first-occurrence order."""
    return list(dict.fromkeys(name for t in ts for name in t.holes))


# ---------------------------------------------------------------------------
# values

@dataclass(frozen=True)
class Sole:
    pass


@dataclass(frozen=True)
class Left:
    inner: "ValueExpr"
    annot: Optional[TypeExpr] = None  # as written; a Sum type once checked


@dataclass(frozen=True)
class Right:
    inner: "ValueExpr"
    annot: Optional[TypeExpr] = None


@dataclass(frozen=True)
class Pair:
    first: "ValueExpr"
    second: "ValueExpr"


@dataclass(frozen=True)
class Var:
    name: str


ValueExpr = Union[Sole, Left, Right, Pair, Var]
SOLE = Sole()


# The fields of each node class's children, last first, as `fold` pushes them.
_CHILDREN = {Sum: ("right", "left"), Prod: ("second", "first"),
             Pair: ("second", "first"), Left: ("inner",), Right: ("inner",)}


def fold(x: Union[TypeExpr, ValueExpr], leaf: Callable[..., object],
         node: Callable[..., object]) -> object:
    """The type or value `x` folded bottom-up: `leaf(u)` for a Unit, TyVar,
    Sole or Var `u`, else `node(u, *kids)`, with the folds of `u`'s children
    in order.  Every occurrence of a node is folded, leaves left to right.
    Iterative, so depth is not bounded by the recursion limit."""
    done: list = []  # the folds of the nodes whose parent is still to come
    stack: list = [(x, 0)]  # (node, 0) to enter it, (node, n) to leave it and its n children
    while stack:
        u, n = stack.pop()
        if n:
            done[-n:] = [node(u, *done[-n:])]
        elif (names := _CHILDREN.get(type(u))) is None:
            done.append(leaf(u))
        else:
            stack.append((u, len(names)))
            stack += [(getattr(u, name), 0) for name in names]
    return done[0]


# The class of the part of a type that `along` goes into a node of each class at.
_SHAPE = {Sum: Sum, Prod: Prod, Pair: Prod, Left: Sum, Right: Sum}


def along(x: Union[TypeExpr, ValueExpr], t: TypeExpr) -> Iterator[tuple[object, TypeExpr]]:
    """``(node, part)`` for the nodes of the type or value `x` that need a
    look, with the part of the type `t` each sits at, in left-to-right
    pre-order: leaves, annotated sum constructors, and nodes whose part
    lacks their shape (`_SHAPE`), whose children are skipped.  Other nodes
    are gone into unyielded.  Iterative, so depth is not bounded."""
    stack = [(x, t)]
    while stack:
        u, part = item = stack.pop()
        cls = type(u)
        if type(part) is not _SHAPE.get(cls):
            yield item
        elif cls is Left or cls is Right:
            if u.annot is not None:
                yield item
            stack.append((u.inner, part.left if cls is Left else part.right))
        else:  # a Sum, Prod or Pair, whose fields are its part's
            a, b = cls.__match_args__
            stack += ((getattr(u, b), getattr(part, b)), (getattr(u, a), getattr(part, a)))


def free_vars(v: ValueExpr) -> list[str]:
    """The names of `v`'s variables, in first-occurrence order."""
    names: dict[str, None] = {}  # a dict keeps each name where it was first set
    fold(v, lambda u: names.setdefault(u.name) if isinstance(u, Var) else None, lambda *_: None)
    return list(names)


def _keep(x):
    return x


def map_value(v: ValueExpr, var: Callable[[Var], ValueExpr] = _keep,
              annot: Callable[[Optional[TypeExpr]], Optional[TypeExpr]] = _keep
              ) -> ValueExpr:
    """Rebuild `v`, replacing each variable node `u` by `var(u)` and each
    sum annotation `a` (None when absent) by `annot(a)`."""
    def node(u: ValueExpr, *kids: ValueExpr) -> ValueExpr:
        return Pair(*kids) if isinstance(u, Pair) else type(u)(*kids, annot(u.annot))
    return fold(v, lambda u: var(u) if isinstance(u, Var) else u, node)


# ---------------------------------------------------------------------------
# goals / relations / programs

@dataclass(frozen=True)
class Conj:
    g1: "Goal"
    g2: "Goal"


@dataclass(frozen=True)
class Disj:
    g1: "Goal"
    g2: "Goal"


@dataclass(frozen=True)
class Fresh:
    binders: Binders  # one or more
    body: "Goal"
    # on a large-enough wrapper, the caller's variables its binders copy, typed
    # generically (`poly.compile_call`); not in the text, so render and `==` ignore it
    wrap: Optional[Binders] = field(default=None, compare=False)


@dataclass(frozen=True)
class Unify:
    v1: ValueExpr
    v2: ValueExpr
    ty: Optional[TypeExpr] = None  # filled by the type checker


@dataclass(frozen=True)
class Disunify:
    v1: ValueExpr
    v2: ValueExpr
    ty: Optional[TypeExpr] = None


@dataclass(frozen=True)
class Call:
    rel: str
    args: tuple[ValueExpr, ...]
    # once checked, the type in the caller of each of the callee's type variables
    subst: Optional[tuple[tuple[str, TypeExpr], ...]] = None


@dataclass(frozen=True)
class Factor:
    literal: str  # raw token; read by the active semiring at load time


@dataclass(frozen=True)
class Facts:
    """A disjunction of ground facts, one leaf goal (`as_facts`).  `disj`
    is the disjunction as read, which `render_goal` prints; no pass walks
    it.  `rows` holds each fact in source order: its pins, each pinned
    variable's name mapped to its ground value and its ``==``, in source
    order, and its factor literal, or None.  It holds no type: each
    ``==`` keeps ``ty`` None, and a column's type is its variable's in
    scope, so a lowered instance takes it from its parameters."""
    disj: Disj
    rows: tuple[tuple[dict[str, tuple[ValueExpr, Unify]], Optional[str]], ...] = \
        field(compare=False, repr=False)


Goal = Union[Conj, Disj, Fresh, Unify, Disunify, Call, Factor, Facts]
LEAF_GOALS = frozenset({Unify, Disunify, Call, Factor, Facts})  # the goals without subgoals
Binders = tuple[tuple[str, TypeExpr], ...]  # typed variables, such as fresh binders


def _ground(v: ValueExpr, known: set[int]) -> bool:
    """Whether `v` holds no variable.  `known` holds the ids of nodes found
    ground, which the caller keeps alive; a shared subtree is walked once."""
    seen, stack = [], [v]
    while stack:
        u = stack.pop()
        if id(u) in known:
            continue
        if type(u) is Var:
            return False
        seen.append(id(u))
        if type(u) is Pair:
            stack += (u.first, u.second)
        elif type(u) is not Sole:
            stack.append(u.inner)
    known.update(seen)
    return True


def as_facts(*disjuncts: Goal) -> Goal:
    """``nest(Disj, disjuncts)`` as one `Facts` leaf if it is a disjunction
    of ground facts, else as that chain of `Disj` nodes.  Each disjunct of
    the chain must be a fact: one ``==``, or a conj of ``==``s and at most
    one factor.  Each ``==`` pins a variable, on either side, to a ground
    value, and every fact pins the same non-empty set of variables, each
    once.  A disjunct that is a `Facts` gives its rows as they are, and
    rejoins the chain as its disjunction, so a nested disjunction of facts
    is read in time linear in its facts.  Iterative, so the number of
    facts is not bounded by the recursion limit."""
    g = nest(Disj, [d.disj if type(d) is Facts else d for d in disjuncts])
    if type(g) is not Disj:
        return g
    rows: list = []
    known: set[int] = set()
    stack = list(reversed(disjuncts))
    while stack:
        d = stack.pop()
        if type(d) is Disj:
            stack += (d.g2, d.g1)
            continue
        if type(d) is Facts:
            if rows and d.rows[0][0].keys() != rows[0][0].keys():
                return g
            rows += d.rows
            continue
        pins, lit, parts = {}, None, [d]
        while parts:
            h = parts.pop()
            if type(h) is Conj:
                parts += (h.g2, h.g1)
            elif type(h) is Unify:
                if type(h.v1) is Var:
                    x, v = h.v1.name, h.v2
                elif type(h.v2) is Var:
                    x, v = h.v2.name, h.v1
                else:
                    return g
                if x in pins or id(v) not in known and not _ground(v, known):
                    return g
                pins[x] = v, h
            elif type(h) is Factor and lit is None:
                lit = h.literal
            else:  # a second factor, or another goal
                return g
        if not pins or rows and pins.keys() != rows[0][0].keys():
            return g
        rows.append((pins, lit))
    return Facts(g, tuple(rows))


def walk_goal(g: Goal) -> Iterator[tuple[Goal, bool]]:
    """``(node, entering)`` for each goal node of `g`, left to right: a
    leaf, a fact table too, once, entering; any other node on entry, then
    for its subgoals, then on exit.  A caller that needs the binders
    around a node keeps them from the freshes it enters and leaves.
    Iterative, so depth is unbounded."""
    stack: list[tuple[Goal, bool]] = [(g, True)]
    while stack:
        h, entering = item = stack.pop()
        yield item
        if entering:
            if isinstance(h, (Conj, Disj)):
                stack += ((h, False), (h.g2, True), (h.g1, True))
            elif isinstance(h, Fresh):
                stack += ((h, False), (h.body, True))


def nest(node: Callable[[Goal, Goal], Goal], goals: list[Goal]) -> Goal:
    """Right-nest `goals` (at least one) with the binary `node`, Conj or
    Disj: ``(conj a b c)`` is ``Conj(a, Conj(b, c))``."""
    out = goals[-1]
    for g in reversed(goals[:-1]):
        out = node(g, out)
    return out


def map_goal(g: Goal, leaf: Callable[[Goal, dict[str, TypeExpr]], Goal],
             ty: Callable[[TypeExpr], TypeExpr] = _keep) -> Goal:
    """Rebuild `g`, replacing each leaf goal by `leaf(goal, scope)` and
    each fresh binder's type by `ty(type)`, both called in pre-order.
    `scope` maps each fresh binder around the leaf to its type (the
    outermost of a repeated name); it is one dict, updated on entering and
    leaving each fresh, which `leaf` must not keep.  A fresh keeps its
    `wrap` record as it is."""
    done: list[Goal] = []
    mapped: list[Binders] = []  # the binders of the open freshes, their types mapped
    scope: dict[str, TypeExpr] = {}
    sizes: list[int] = []  # the size of `scope` as each open fresh was entered
    for h, entering in walk_goal(g):
        if type(h) in LEAF_GOALS:
            done.append(leaf(h, scope))
        elif isinstance(h, Fresh) and entering:
            mapped.append(tuple((x, ty(t)) for x, t in h.binders))
            sizes.append(len(scope))
            for x, t in h.binders:
                scope.setdefault(x, t)
        elif isinstance(h, Fresh):
            done.append(Fresh(mapped.pop(), done.pop(), h.wrap))
            for _ in range(len(scope) - sizes.pop()):
                scope.popitem()  # the last name added, which this fresh added
        elif not entering:  # a conj or disj, its two subgoals done
            done[-2:] = [type(h)(*done[-2:])]
    return done[0]


def subgoals(g: Goal) -> Iterator[Goal]:
    """Every goal node of `g`, `g` first, in left-to-right pre-order."""
    return (h for h, entering in walk_goal(g) if entering)


@dataclass(frozen=True)
class RelationDef:
    name: str
    tyvars: tuple[str, ...]
    params: tuple[tuple[str, TypeExpr], ...]
    body: Goal


@dataclass(frozen=True)
class Program:
    relations: tuple[RelationDef, ...]

    def relation(self, name: str) -> RelationDef:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise KeyError(name)

    def names(self) -> list[str]:
        return [rel.name for rel in self.relations]


# ---------------------------------------------------------------------------
# reader

class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.msg, self.line, self.col = msg, line, col


RESERVED = {
    "defrel", "forall", "conj", "disj", "fresh", "==", "=/=", "factor",
    "sole", "left", "right", "pair", "Unit", "Sum", "Prod", "Pair",
}

# A token is a bracket, a brace, a ":" or a run of other characters that
# ends before one of those, a ";" (a comment, to the end of the line) or a
# separator: a space, tab, CR or LF.  The reader finds the tokens with
# `str.split`; `_TOKEN` is the same rule as one regex, which finds their
# offsets for an error.
_TOKEN = re.compile(r";[^\n]*|([(){}:]|[^(){};: \t\r\n]+)")
_COMMENT = re.compile(r";[^\n]*")
_SPACED, _BLANK = "(){}:", "\t\r\n"  # padded with spaces; made spaces
_PUNCT = {"(", ")", "{", "}", ":", ""}  # "" ends the token list
_CLOSER = {"(": ")", "{": "}"}


class _NameSupply:
    """Generates names that collide with none in `used` nor with each other.
    `used` is read, not copied (the reader shares one set across relations);
    the names made are kept in `made`."""

    def __init__(self, used: set[str]):
        self.used, self.made, self.counter = used, set(), 0

    def fresh(self, base: str) -> str:
        while True:
            self.counter += 1
            cand = f"{base}~{self.counter}"
            if cand not in self.used and cand not in self.made:
                self.made.add(cand)
                return cand

    def relation_name(self, base: str) -> str:
        name, k = base, 0
        while name in self.used or name in self.made:
            k += 1
            name = f"{base}#{k}"
        self.made.add(name)
        return name


class _Reader:
    """One method per form and one Python frame per nesting level.  A form
    reads its children up to its own closing bracket, then checks how many
    it got.  A position (`pos`, `off`, `at`) is an index into `toks`.
    Within a relation, `scope` holds the variables in scope and `env` maps
    each shadowing binder to its new name; the relation's name supply,
    made at its first rename, avoids every token of the file, a set built
    at the file's first rename.  A value or type form read once is
    kept under its tokens, "(" to ")", and a later form with the same
    tokens is that node, except for a value form while `env` renames a
    binder.  A form that fails is never kept, so errors are unchanged."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        if ";" in text:
            text = _COMMENT.sub("", text)
        for c in _SPACED:
            text = text.replace(c, f" {c} ")
        for c in _BLANK:
            text = text.replace(c, " ")
        self.toks = (*filter(None, text.split(" ")), "")
        # each "(" `match` passed, at its ")" or None; the value and type forms read
        self.close, self.values, self.types = {}, {}, {}

    @cached_property
    def atoms(self) -> set[str]:
        """Every token of the file, which a renamed binder avoids; built
        on the first rename, and shared by each relation's name supply."""
        return set(self.toks)

    def match(self, off: int) -> Optional[int]:
        """The index of the ")" that closes the "(" at `off`, or None.  One
        scan from `off` to there records the same for each "(" it passes,
        so the tokens of a value or type form are scanned once."""
        toks, opens = self.toks, []
        for i in range(off, len(toks)):
            if toks[i] == "(":
                opens.append(i)
            elif toks[i] == ")":
                self.close[opens.pop()] = i
                if not opens:
                    return i
        self.close.update(dict.fromkeys(opens))
        return None

    def fail(self, msg: str, at: int):
        """Raise `msg` at token `at`, unless a bracket is unmatched: then
        raise the first such bracket, wherever it is in the file.  Only
        an error needs the tokens' offsets, so only here are they found."""
        stack = []
        for i, tok in enumerate(self.toks):
            if tok in _CLOSER:
                stack.append((_CLOSER[tok], i))
            elif tok in (")", "}") and (not stack or stack.pop()[0] != tok):
                msg, at = f"unexpected {tok!r}", i
                break
            elif tok == "" and stack:
                msg, at = f"missing {stack[-1][0]!r}", stack[-1][1]
        off = ([m.start() for m in _TOKEN.finditer(self.text) if m[1]] + [len(self.text)])[at]
        line = self.text.count("\n", 0, off) + 1
        raise ParseError(msg, line, off - self.text.rfind("\n", 0, off))

    def next(self) -> tuple[str, int]:
        """The next token and its index."""
        self.pos += 1
        return self.toks[self.pos - 1], self.pos - 1

    def more(self, close: str = ")") -> bool:
        """Whether another child follows; consumes the closing bracket."""
        tok = self.toks[self.pos]
        if tok == close:
            self.pos += 1
            return False
        if tok in (")", "}", ""):
            self.fail("", self.pos)  # an unmatched bracket, which `fail` reports
        return True

    def name(self, what: str) -> str:
        tok, off = self.next()
        if tok in _PUNCT:
            self.fail(f"expected {what}", off)
        if tok in RESERVED:
            self.fail(f"{tok!r} is reserved and cannot name a {what}", off)
        return tok

    def head(self, off: int, what: str, empty: str) -> str:
        """The head token of the form whose "(" is at `off`; a form with none
        fails with `empty`."""
        tok = self.toks[self.pos]
        if tok == ")":
            self.fail(empty, off)
        if tok in _PUNCT:  # "" and "}" are unmatched brackets, which `fail` reports
            self.fail("" if tok in ("}", "") else f"expected {what}", self.pos)
        self.pos += 1
        return tok

    def type(self) -> TypeExpr:
        tok, off = self.next()
        if tok == "(":
            close = self.close[off] if off in self.close else self.match(off)
            key = None if close is None else self.toks[off:close + 1]
            if (t := self.types.get(key)) is not None:
                self.pos = close + 1
                return t
            head = self.head(off, "a type constructor", "empty type form")
            if head not in ("Sum", "Prod", "Pair"):  # Pair is an alias for Prod
                self.fail(f"unknown type constructor {head!r}", off)
            kids = []
            while self.more():
                kids.append(self.type())
            if len(kids) != 2:
                self.fail(f"{head} takes two types", off)
            t = Sum(*kids) if head == "Sum" else Prod(*kids)
            if key is not None:
                self.types[key] = t
            return t
        if tok == "{":
            self.fail("unexpected annotation braces in type", off)
        if tok == "Unit":
            return UNIT
        if tok in RESERVED or tok == ":":
            self.fail(f"expected a type, got {tok!r}", off)
        return TyVar(tok)

    def value(self) -> ValueExpr:
        tok, off = self.toks[self.pos], self.pos
        if tok == "sole":
            self.pos += 1
            return SOLE
        if tok == "{":
            self.fail("annotation braces are only valid after left/right", off)
        if tok != "(":
            name = self.name("variable")
            return Var(self.env.get(name, name))
        key = None  # a form read while no binder is renamed reads the same anywhere
        if not self.env:
            close = self.close[off] if off in self.close else self.match(off)
            key = None if close is None else self.toks[off:close + 1]
            if (v := self.values.get(key)) is not None:
                self.pos = close + 1
                return v
        self.pos += 1
        head = self.head(off, "a value constructor", "empty value form")
        if head not in ("left", "right", "pair"):
            self.fail(f"unknown value constructor {head!r}", off)
        annots = []
        if head != "pair" and self.toks[self.pos] == "{":
            self.pos += 1
            while self.more("}"):
                annots.append(self.type())
            if len(annots) != 1:
                self.fail("annotation braces hold exactly one type", off)
        kids = []
        while self.more():
            kids.append(self.value())
        if head == "pair":
            if len(kids) != 2:
                self.fail("pair takes two values", off)
            v = Pair(*kids)
        elif len(kids) != 1:
            self.fail(f"{head} takes one value", off)
        else:
            v = Left(kids[0], *annots) if head == "left" else Right(kids[0], *annots)
        if key is not None:
            self.values[key] = v
        return v

    def goal(self) -> Goal:
        tok, off = self.next()
        if tok != "(":
            self.fail("expected a goal" if tok == "{" else f"expected a goal, got {tok!r}", off)
        head = self.head(off, "a goal form", "expected a goal")
        if head in ("conj", "disj"):
            goals = []
            while self.more():
                goals.append(self.goal())
            if len(goals) < 2:
                self.fail(f"{head} takes at least two subgoals", off)
            return nest(Conj, goals) if head == "conj" else as_facts(*goals)
        if head == "fresh":
            arity = "fresh takes a binder list and one body goal"
            if not self.more():
                self.fail(arity, off)
            env, binders = self.env, []
            if self.toks[self.pos] == "(":
                self.pos += 1
                while self.more():
                    x, ty = self.param()
                    if x in self.scope:
                        self.supply = self.supply or _NameSupply(self.atoms)
                        self.env = {**self.env, x: self.supply.fresh(x)}
                    binders.append((self.env.get(x, x), ty))
                    self.scope.add(binders[-1][0])
            if not binders:
                self.fail("fresh needs a non-empty binder list", off)
            if not self.more():
                self.fail(arity, off)
            body = self.goal()
            if self.more():
                self.fail(arity, off)
            self.scope.difference_update(x for x, _ in binders)
            self.env = env
            return Fresh(tuple(binders), body)
        if head == "factor":
            lit, _ = self.next()
            if lit in _PUNCT or self.more():
                self.fail("factor takes one weight literal", off)
            return Factor(lit)
        if head in RESERVED and head not in ("==", "=/="):
            self.fail(f"misplaced {head!r}", off)
        args = []
        while self.more():
            args.append(self.value())
        if head not in ("==", "=/="):
            return Call(head, tuple(args))
        if len(args) != 2:
            self.fail(f"{head} takes two values", off)
        return Unify(*args) if head == "==" else Disunify(*args)

    def param(self, at: Optional[int] = None) -> tuple[str, TypeExpr]:
        """One `(name : type)`, reported at `at`, else at its `(`, if malformed."""
        tok, off = self.next()
        at = off if at is None else at
        if tok != "(" or not self.more() or (self.toks[self.pos] not in _CLOSER
                                             and self.toks[self.pos + 1] != ":"):
            self.fail("expected (name : type)", at)
        name = self.name("variable")
        self.pos += 1  # the ':'
        if not self.more() or self.toks[self.pos] == ":":
            self.fail("expected (name : type)", at)
        ty = self.type()
        if self.more():
            self.fail("expected (name : type)", at)
        return name, ty

    def defrel(self) -> RelationDef:
        tok, off = self.next()
        shape = "expected (defrel (name params...) goal)"
        if tok != "(":
            self.fail(shape, off)
        kw = self.head(off, "defrel", shape)
        if kw != "defrel":
            self.fail(f"expected defrel, got {kw!r}", off)
        if not self.more():
            self.fail(shape, off)
        tok, hoff = self.next()
        if tok != "(" or not self.more():
            self.fail("defrel needs a (name params...) header", off)
        name, tyvars = self.name("relation"), None
        if self.toks[self.pos] == "(" and self.toks[self.pos + 1] == "forall":
            self.pos += 2
            tyvars = []
            while self.more():
                tyvars.append(self.name("type variable"))
            if len(set(tyvars)) != len(tyvars):
                self.fail("duplicate type variable in forall", hoff)
        # Accept both a flat parameter list and one wrapped in an extra list.
        params, wrap = [], None
        if self.toks[self.pos] == "(" and self.toks[self.pos + 1] == "(":
            wrap = self.next()[1]
        while self.more():
            params.append(self.param(wrap))
        if wrap is not None and self.more():
            self.fail("expected (name : type)", wrap)
        names = [x for x, _ in params]
        if len(set(names)) != len(names):
            self.fail(f"duplicate parameter name in relation {name!r}", hoff)
        if tyvars is None:
            tyvars = free_type_vars(*(ty for _, ty in params))
        if not self.more():
            self.fail(shape, off)
        self.scope, self.env, self.supply = set(names), {}, None
        body = self.goal()
        if self.more():
            self.fail(shape, off)
        return RelationDef(name, tuple(tyvars), tuple(params), body)


def parse_program(text: str) -> Program:
    """Parse source text into a `Program`, normalizing surface sugar."""
    reader = _Reader(text)
    rels: dict[str, RelationDef] = {}
    while reader.toks[reader.pos]:
        at = reader.pos
        rel = reader.defrel()
        if rel.name in rels:
            reader.fail(f"duplicate relation name {rel.name!r}", at)
        rels[rel.name] = rel
    return Program(tuple(rels.values()))


# ---------------------------------------------------------------------------
# printing

def render_type(t: TypeExpr) -> str:
    return fold(t, lambda u: u.name if isinstance(u, TyVar) else "Unit",
                lambda u, a, b: f"({type(u).__name__} {a} {b})")


def render_value_expr(v: ValueExpr) -> str:
    def node(u: ValueExpr, *kids: str) -> str:
        braces = "" if getattr(u, "annot", None) is None else f"{{{render_type(u.annot)}}} "
        return f"({type(u).__name__.lower()} {braces}{' '.join(kids)})"
    return fold(v, lambda u: u.name if isinstance(u, Var) else "sole", node)


def render_value(v: ValueExpr) -> str:
    """Canonical text for a concrete value; annotations are omitted."""
    def leaf(u: ValueExpr) -> str:
        if isinstance(u, Var):
            raise ValueError(f"cannot render non-concrete value {render_value_expr(v)}")
        return "sole"
    return fold(v, leaf, lambda u, *kids: f"({type(u).__name__.lower()} {' '.join(kids)})")


def render_goal(g: Goal, indent: int = 0) -> str:
    """One line per goal node, each nesting level indented two spaces."""
    lines: list[str] = []
    for h, entering in walk_goal(g):
        if not entering:
            lines[-1] += ")"
            indent -= 1
            continue
        match h:
            case Conj() | Disj():
                text = "(conj" if isinstance(h, Conj) else "(disj"
            case Fresh(binders):
                text = f"(fresh ({' '.join(f'({x} : {render_type(t)})' for x, t in binders)})"
            case Unify(v1, v2) | Disunify(v1, v2):
                op = "==" if isinstance(h, Unify) else "=/="
                text = f"({op} {render_value_expr(v1)} {render_value_expr(v2)})"
            case Call(rel, args):
                text = f"({' '.join([rel, *map(render_value_expr, args)])})"
            case Factor(lit):
                text = f"(factor {lit})"
            case Facts(disj):  # printed as read, indented
                lines.append(render_goal(disj, indent))
                continue
            case _:
                raise TypeError(h)
        lines.append("  " * indent + text)
        indent += type(h) not in LEAF_GOALS
    return "\n".join(lines)


def render_relation(rel: RelationDef) -> str:
    params = " ".join(f"({x} : {render_type(ty)})" for x, ty in rel.params)
    forall = f"(forall {' '.join(rel.tyvars)}) " if rel.tyvars else ""
    header = f"({rel.name} {forall}{params})" if params or forall else f"({rel.name})"
    return f"(defrel {header}\n{render_goal(rel.body, 1)})"


def render_program(p: Program) -> str:
    return "\n\n".join(render_relation(rel) for rel in p.relations) + ("\n" if p.relations else "")
