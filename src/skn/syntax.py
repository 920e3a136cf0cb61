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
the binary AST forms; ``fresh`` may bind several variables and nests the
same way.  Sum constructors take an optional brace-wrapped annotation,
``(left {(Sum Unit Unit)} sole)``; when it is absent the type checker
infers the sum type without writing it in.  Comments run from ``;`` to end of line.

The text is read in one pass: one regex splits it into tokens, and a
recursive-descent reader builds the AST from them.  The reader renames
apart any ``fresh`` binder that would shadow an enclosing variable as it
goes, so later passes can treat variable names as unique within one
relation body.

Goals are walked by one iterative traversal, `walk_goal`, which yields
each goal node on entry and on exit with the ``fresh`` binders around
it.  `subgoals`, `map_goal` and `render_goal` are built on it, and the
type checker and the lowering walk goals only through these.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# types
#
# Types are hash-consed: building a type equal to one that exists returns
# that object.  So equal types are one object, `==` and `hash` are the
# object's identity, and each node's `size` (its number of values, None
# when a type variable occurs below it) is computed once, when it is built.

_TYPES: dict[tuple, "TypeExpr"] = {}


def _intern(cls, *children) -> "TypeExpr":
    """The one `cls` node with these children, built on first request."""
    key = (cls, *children)
    t = _TYPES.get(key)
    if t is None:
        t = _TYPES[key] = object.__new__(cls)
        for name, child in zip(cls.__match_args__, children):
            object.__setattr__(t, name, child)
        object.__setattr__(t, "size", cls._size(*children))
    return t


class _Type:
    """What every type node has: its `size`, set by `_intern`."""
    size: Optional[int]

    def __reduce__(self) -> tuple:
        """Pickle and copy a type as a call that rebuilds it, so the copy
        is the interned node."""
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        """The dataclass form, such as ``Sum(left=Unit(), right=TyVar(name='a'))``,
        written with an explicit stack so that depth is not bounded by the
        recursion limit."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, TyVar):
                out.append(f"TyVar(name={t.name!r})")
            else:
                items: list = [")"]
                for i, name in reversed(list(enumerate(t.__match_args__))):
                    items += [getattr(t, name), f"{', ' if i else ''}{name}="]
                stack += items
                out.append(f"{type(t).__name__}(")
        return "".join(out)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Unit(_Type):
    def __new__(cls) -> "Unit":
        return _intern(cls)

    @staticmethod
    def _size() -> int:
        return 1


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Sum(_Type):
    left: "TypeExpr"
    right: "TypeExpr"

    def __new__(cls, left: "TypeExpr", right: "TypeExpr") -> "Sum":
        return _intern(cls, left, right)

    @staticmethod
    def _size(a: "TypeExpr", b: "TypeExpr") -> Optional[int]:
        return None if a.size is None or b.size is None else a.size + b.size


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Prod(_Type):
    first: "TypeExpr"
    second: "TypeExpr"

    def __new__(cls, first: "TypeExpr", second: "TypeExpr") -> "Prod":
        return _intern(cls, first, second)

    @staticmethod
    def _size(a: "TypeExpr", b: "TypeExpr") -> Optional[int]:
        return None if a.size is None or b.size is None else a.size * b.size


@dataclass(frozen=True, eq=False, init=False, repr=False)
class TyVar(_Type):
    name: str

    def __new__(cls, name: str) -> "TyVar":
        return _intern(cls, name)

    @staticmethod
    def _size(name: str) -> None:
        return None


TypeExpr = Union[Unit, Sum, Prod, TyVar]
UNIT = Unit()


def free_type_vars(*ts: TypeExpr) -> list[str]:
    """All type-variable names in the types `ts`, in first-occurrence order."""
    out: list[str] = []
    stack = list(reversed(ts))
    while stack:
        u = stack.pop()
        if u.size is not None:
            continue
        match u:
            case TyVar(name):
                if name not in out:
                    out.append(name)
            case Sum(a, b) | Prod(a, b):
                stack += (b, a)
    return out


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


def free_vars(v: ValueExpr) -> list[str]:
    out: list[str] = []

    def walk(u: ValueExpr) -> None:
        match u:
            case Var(name):
                if name not in out:
                    out.append(name)
            case Left(inner, _) | Right(inner, _):
                walk(inner)
            case Pair(a, b):
                walk(a)
                walk(b)
            case Sole():
                pass

    walk(v)
    return out


def _keep(x):
    return x


def map_value(v: ValueExpr, var: Callable[[Var], ValueExpr] = _keep,
              annot: Callable[[Optional[TypeExpr]], Optional[TypeExpr]] = _keep
              ) -> ValueExpr:
    """Rebuild `v`, replacing each variable node `u` by `var(u)` and each
    sum annotation `a` (None when absent) by `annot(a)`."""
    match v:
        case Var():
            return var(v)
        case Left(inner, a):
            return Left(map_value(inner, var, annot), annot(a))
        case Right(inner, a):
            return Right(map_value(inner, var, annot), annot(a))
        case Pair(a, b):
            return Pair(map_value(a, var, annot), map_value(b, var, annot))
    return v


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
    var: str
    ty: TypeExpr
    body: "Goal"
    # poly.LargeEnoughCall on the outer binder of a large-enough wrapper;
    # not part of the text, so the renderer and `==` ignore it
    wrap: Optional[object] = field(default=None, compare=False)


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
    info: Optional[object] = None  # typecheck.CallInfo once checked


@dataclass(frozen=True)
class Factor:
    literal: str  # raw token; read by the active semiring at load time


Goal = Union[Conj, Disj, Fresh, Unify, Disunify, Call, Factor]
LEAF_GOALS = (Unify, Disunify, Call, Factor)  # the goals without subgoals
Binders = tuple[tuple[str, TypeExpr], ...]  # typed variables, such as fresh binders


def walk_goal(g: Goal) -> Iterator[tuple[Goal, Binders, bool]]:
    """``(node, binders, entering)`` for each goal node of `g`, left to
    right: on entry, then for its subgoals, then on exit.  `binders` are
    the ``(name, type)`` of the freshes around the node, outermost first.
    Iterative, so the nesting depth is not bounded by the recursion limit."""
    stack: list[tuple[Goal, Binders, bool]] = [(g, (), True)]
    while stack:
        h, binders, entering = item = stack.pop()
        yield item
        if entering:
            if isinstance(h, (Conj, Disj)):
                stack += ((h, binders, False), (h.g2, binders, True), (h.g1, binders, True))
            elif isinstance(h, Fresh):
                stack += ((h, binders, False), (h.body, binders + ((h.var, h.ty),), True))
            else:
                yield h, binders, False


def nest(node: Callable[[Goal, Goal], Goal], goals: list[Goal]) -> Goal:
    """Right-nest `goals` (at least one) with the binary `node`, Conj or
    Disj: ``(conj a b c)`` is ``Conj(a, Conj(b, c))``."""
    out = goals[-1]
    for g in reversed(goals[:-1]):
        out = node(g, out)
    return out


def map_goal(g: Goal, leaf: Callable[[Goal, Binders], Goal],
             ty: Callable[[TypeExpr], TypeExpr] = _keep) -> Goal:
    """Rebuild `g`, replacing each leaf goal by `leaf(goal, binders)` and
    each fresh binder's type by `ty(type)`, both called in pre-order.  A
    fresh keeps its `wrap` record as it is."""
    done: list[Goal] = []
    types: list[TypeExpr] = []  # the mapped types of the open freshes
    for h, binders, entering in walk_goal(g):
        if isinstance(h, (Conj, Disj)):
            if not entering:
                done[-2:] = [type(h)(*done[-2:])]
        elif isinstance(h, Fresh):
            if entering:
                types.append(ty(h.ty))
            else:
                done.append(Fresh(h.var, types.pop(), done.pop(), h.wrap))
        elif entering:
            done.append(leaf(h, binders))
    return done[0]


def subgoals(g: Goal) -> Iterator[Goal]:
    """Every goal node of `g`, `g` first, in left-to-right pre-order."""
    return (h for h, _, entering in walk_goal(g) if entering)


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

_TOKEN = re.compile(r";[^\n]*|([(){}:]|[^(){};: \t\r\n]+)")
_PUNCT = {"(", ")", "{", "}", ":", ""}  # "" ends the token list
_CLOSER = {"(": ")", "{": "}"}


class _NameSupply:
    """Generates names that collide with none in `used` nor with each other."""

    def __init__(self, used: set[str]):
        self.used, self.counter = set(used), 0

    def fresh(self, base: str) -> str:
        while True:
            self.counter += 1
            cand = f"{base}~{self.counter}"
            if cand not in self.used:
                self.used.add(cand)
                return cand

    def relation_name(self, base: str) -> str:
        name, k = base, 0
        while name in self.used:
            k += 1
            name = f"{base}#{k}"
        self.used.add(name)
        return name


class _Reader:
    """One method per form and one Python frame per nesting level.  A form
    reads its children up to its own closing bracket, then checks how many
    it got.  Within a relation, `scope` holds the variables in scope and
    `env` maps each shadowing binder to its new name; the relation's name
    supply avoids every token of the file."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        self.toks = [(m[1], m.start()) for m in _TOKEN.finditer(text) if m[1]] + [("", len(text))]
        self.atoms = {tok for tok, _ in self.toks}

    def fail(self, msg: str, off: int):
        """Raise `msg` at offset `off`, unless a bracket is unmatched: then
        raise the first such bracket, wherever it is in the file."""
        stack = []
        for tok, at in self.toks:
            if tok in _CLOSER:
                stack.append((_CLOSER[tok], at))
            elif tok in (")", "}") and (not stack or stack.pop()[0] != tok):
                msg, off = f"unexpected {tok!r}", at
                break
            elif tok == "" and stack:
                msg, off = f"missing {stack[-1][0]!r}", stack[-1][1]
        line = self.text.count("\n", 0, off) + 1
        raise ParseError(msg, line, off - self.text.rfind("\n", 0, off))

    def next(self) -> tuple[str, int]:
        self.pos += 1
        return self.toks[self.pos - 1]

    def more(self, close: str = ")") -> bool:
        """Whether another child follows; consumes the closing bracket."""
        tok, off = self.toks[self.pos]
        if tok == close:
            self.pos += 1
            return False
        if tok in (")", "}", ""):
            self.fail("", off)  # an unmatched bracket, which `fail` reports
        return True

    def name(self, what: str) -> str:
        tok, off = self.next()
        if tok in _PUNCT:
            self.fail(f"expected {what}", off)
        if tok in RESERVED:
            self.fail(f"{tok!r} is reserved and cannot name a {what}", off)
        return tok

    def head(self, off: int, what: str, empty: str) -> str:
        if not self.more():
            self.fail(empty, off)
        tok, at = self.next()
        if tok in _PUNCT:
            self.fail(f"expected {what}", at)
        return tok

    def type(self) -> TypeExpr:
        tok, off = self.next()
        if tok == "(":
            head = self.head(off, "a type constructor", "empty type form")
            if head not in ("Sum", "Prod", "Pair"):  # Pair is an alias for Prod
                self.fail(f"unknown type constructor {head!r}", off)
            kids = []
            while self.more():
                kids.append(self.type())
            if len(kids) != 2:
                self.fail(f"{head} takes two types", off)
            return Sum(*kids) if head == "Sum" else Prod(*kids)
        if tok == "{":
            self.fail("unexpected annotation braces in type", off)
        if tok == "Unit":
            return UNIT
        if tok in RESERVED or tok == ":":
            self.fail(f"expected a type, got {tok!r}", off)
        return TyVar(tok)

    def value(self) -> ValueExpr:
        tok, off = self.toks[self.pos]
        if tok == "sole":
            self.pos += 1
            return SOLE
        if tok == "{":
            self.fail("annotation braces are only valid after left/right", off)
        if tok != "(":
            name = self.name("variable")
            return Var(self.env.get(name, name))
        self.pos += 1
        head = self.head(off, "a value constructor", "empty value form")
        if head not in ("left", "right", "pair"):
            self.fail(f"unknown value constructor {head!r}", off)
        annots = []
        if head != "pair" and self.toks[self.pos][0] == "{":
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
            return Pair(*kids)
        if len(kids) != 1:
            self.fail(f"{head} takes one value", off)
        return Left(kids[0], *annots) if head == "left" else Right(kids[0], *annots)

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
            return nest(Conj if head == "conj" else Disj, goals)
        if head == "fresh":
            arity = "fresh takes a binder list and one body goal"
            if not self.more():
                self.fail(arity, off)
            env, binders = self.env, []
            if self.toks[self.pos][0] == "(":
                self.pos += 1
                while self.more():
                    x, ty = self.param()
                    if x in self.scope:
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
            for x, ty in reversed(binders):
                body = Fresh(x, ty, body)
            return body
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
        if tok != "(" or not self.more() or (self.toks[self.pos][0] not in _CLOSER
                                             and self.toks[self.pos + 1][0] != ":"):
            self.fail("expected (name : type)", at)
        name = self.name("variable")
        self.pos += 1  # the ':'
        if not self.more() or self.toks[self.pos][0] == ":":
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
        if self.toks[self.pos][0] == "(" and self.toks[self.pos + 1][0] == "forall":
            self.pos += 2
            tyvars = []
            while self.more():
                tyvars.append(self.name("type variable"))
            if len(set(tyvars)) != len(tyvars):
                self.fail("duplicate type variable in forall", hoff)
        # Accept both a flat parameter list and one wrapped in an extra list.
        params, wrap = [], None
        if self.toks[self.pos][0] == "(" and self.toks[self.pos + 1][0] == "(":
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
        self.scope, self.env, self.supply = set(names), {}, _NameSupply(self.atoms)
        body = self.goal()
        if self.more():
            self.fail(shape, off)
        return RelationDef(name, tuple(tyvars), tuple(params), body)


def parse_program(text: str) -> Program:
    """Parse source text into a `Program`, normalizing surface sugar."""
    reader = _Reader(text)
    rels: dict[str, RelationDef] = {}
    while reader.toks[reader.pos][0]:
        off = reader.toks[reader.pos][1]
        rel = reader.defrel()
        if rel.name in rels:
            reader.fail(f"duplicate relation name {rel.name!r}", off)
        rels[rel.name] = rel
    return Program(tuple(rels.values()))


# ---------------------------------------------------------------------------
# printing

def render_type(t: TypeExpr) -> str:
    match t:
        case Unit():
            return "Unit"
        case TyVar(name):
            return name
        case Sum(a, b):
            return f"(Sum {render_type(a)} {render_type(b)})"
        case Prod(a, b):
            return f"(Prod {render_type(a)} {render_type(b)})"
    raise TypeError(t)


def render_value_expr(v: ValueExpr) -> str:
    match v:
        case Sole():
            return "sole"
        case Var(name):
            return name
        case Left(inner, annot) | Right(inner, annot):
            tag = "left" if isinstance(v, Left) else "right"
            braces = "" if annot is None else f"{{{render_type(annot)}}} "
            return f"({tag} {braces}{render_value_expr(inner)})"
        case Pair(a, b):
            return f"(pair {render_value_expr(a)} {render_value_expr(b)})"
    raise TypeError(v)


def render_value(v: ValueExpr) -> str:
    """Canonical text for a concrete value; annotations are omitted."""
    if free_vars(v):
        raise ValueError(f"cannot render non-concrete value {v!r}")
    return render_value_expr(map_value(v, annot=lambda _: None))


def render_goal(g: Goal, indent: int = 0) -> str:
    """One line per goal node, each nesting level indented two spaces."""
    lines: list[str] = []
    for h, _, entering in walk_goal(g):
        if not entering:
            if not isinstance(h, LEAF_GOALS):
                lines[-1] += ")"
                indent -= 1
            continue
        match h:
            case Conj() | Disj():
                text = "(conj" if isinstance(h, Conj) else "(disj"
            case Fresh(x, ty):
                text = f"(fresh (({x} : {render_type(ty)}))"
            case Unify(v1, v2) | Disunify(v1, v2):
                op = "==" if isinstance(h, Unify) else "=/="
                text = f"({op} {render_value_expr(v1)} {render_value_expr(v2)})"
            case Call(rel, args):
                text = f"({' '.join([rel, *map(render_value_expr, args)])})"
            case Factor(lit):
                text = f"(factor {lit})"
            case _:
                raise TypeError(h)
        lines.append("  " * indent + text)
        indent += not isinstance(h, LEAF_GOALS)
    return "\n".join(lines)


def render_relation(rel: RelationDef) -> str:
    params = " ".join(f"({x} : {render_type(ty)})" for x, ty in rel.params)
    forall = f"(forall {' '.join(rel.tyvars)}) " if rel.tyvars else ""
    header = f"({rel.name} {forall}{params})" if params or forall else f"({rel.name})"
    return f"(defrel {header}\n{render_goal(rel.body, 1)})"


def render_program(p: Program) -> str:
    return "\n\n".join(render_relation(rel) for rel in p.relations) + ("\n" if p.relations else "")
