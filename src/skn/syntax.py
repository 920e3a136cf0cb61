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

Parsing also renames apart any ``fresh`` binder that would shadow an
enclosing variable, so later passes can treat variable names as unique
within one relation body.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Sum:
    left: "TypeExpr"
    right: "TypeExpr"


@dataclass(frozen=True)
class Prod:
    first: "TypeExpr"
    second: "TypeExpr"


@dataclass(frozen=True)
class TyVar:
    name: str


TypeExpr = Union[Unit, Sum, Prod, TyVar]
UNIT = Unit()


def free_type_vars(*ts: TypeExpr) -> list[str]:
    """All type-variable names in the types `ts`, in first-occurrence order."""
    out: list[str] = []

    def walk(u: TypeExpr) -> None:
        match u:
            case TyVar(name):
                if name not in out:
                    out.append(name)
            case Sum(l, r):
                walk(l)
                walk(r)
            case Prod(a, b):
                walk(a)
                walk(b)
            case Unit():
                pass

    for t in ts:
        walk(t)
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


def map_goal(g: Goal, leaf: Callable[[Goal], Goal],
             ty: Callable[[TypeExpr], TypeExpr] = _keep) -> Goal:
    """Rebuild `g`, replacing each leaf goal (==, =/=, call, factor) by
    `leaf(goal)` and each fresh binder's type by `ty(type)`."""
    match g:
        case Conj(a, b):
            return Conj(map_goal(a, leaf, ty), map_goal(b, leaf, ty))
        case Disj(a, b):
            return Disj(map_goal(a, leaf, ty), map_goal(b, leaf, ty))
        case Fresh(x, t, body):
            return Fresh(x, ty(t), map_goal(body, leaf, ty))
    return leaf(g)


def subgoals(g: Goal) -> Iterator[Goal]:
    """Every goal node of `g`, `g` first, in left-to-right pre-order.

    Iterative, so the nesting depth is not bounded by the recursion limit.
    """
    stack = [g]
    while stack:
        h = stack.pop()
        yield h
        match h:
            case Conj(a, b) | Disj(a, b):
                stack += (b, a)
            case Fresh(_, _, body):
                stack.append(body)


def var_names(g: Goal) -> set[str]:
    """Every variable name `g` binds or mentions."""
    out: set[str] = set()
    for h in subgoals(g):
        match h:
            case Fresh(x, _, _):
                out.add(x)
            case Unify(v1, v2, _) | Disunify(v1, v2, _):
                out.update(free_vars(v1), free_vars(v2))
            case Call(_, args, _):
                for a in args:
                    out.update(free_vars(a))
    return out


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
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


RESERVED = {
    "defrel", "forall", "conj", "disj", "fresh", "==", "=/=", "factor",
    "sole", "left", "right", "pair", "Unit", "Sum", "Prod", "Pair",
}

_DELIMS = set("(){};:") | set(" \t\r\n")


@dataclass(frozen=True)
class SAtom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int
    col: int
    braced: bool = False


def _tokenize(text: str):
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "(){}:":
            yield (c, c, line, col)
            i += 1
            col += 1
        else:
            start, scol = i, col
            while i < n and text[i] not in _DELIMS:
                i += 1
                col += 1
            yield ("atom", text[start:i], line, scol)
    yield ("eof", "", line, col)


def _read_all(text: str) -> list:
    tokens = list(_tokenize(text))
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def read_one():
        kind, value, line, col = advance()
        if kind == "atom" or kind == ":":
            return SAtom(value, line, col)
        if kind in "({":
            close = ")" if kind == "(" else "}"
            items = []
            while True:
                k, _, l, c = peek()
                if k == "eof":
                    raise ParseError(f"missing {close!r}", line, col)
                if k == close:
                    advance()
                    return SList(tuple(items), line, col, braced=(kind == "{"))
                if k in ")}":
                    raise ParseError(f"unexpected {k!r}", l, c)
                items.append(read_one())
        raise ParseError(f"unexpected {value!r}", line, col)

    forms = []
    while peek()[0] != "eof":
        forms.append(read_one())
    return forms


# ---------------------------------------------------------------------------
# AST construction

def _want_atom(sx, what: str) -> str:
    if not isinstance(sx, SAtom) or sx.text == ":":
        raise ParseError(f"expected {what}", sx.line, sx.col)
    return sx.text


def _want_name(sx, what: str) -> str:
    name = _want_atom(sx, what)
    if name in RESERVED:
        raise ParseError(f"{name!r} is reserved and cannot name a {what}", sx.line, sx.col)
    return name


def build_type(sx) -> TypeExpr:
    if isinstance(sx, SAtom):
        if sx.text == "Unit":
            return UNIT
        if sx.text in RESERVED or sx.text == ":":
            raise ParseError(f"expected a type, got {sx.text!r}", sx.line, sx.col)
        return TyVar(sx.text)
    if sx.braced:
        raise ParseError("unexpected annotation braces in type", sx.line, sx.col)
    if not sx.items:
        raise ParseError("empty type form", sx.line, sx.col)
    head = _want_atom(sx.items[0], "a type constructor")
    if head in ("Sum", "Prod", "Pair"):  # Pair accepted as an alias for Prod
        if len(sx.items) != 3:
            raise ParseError(f"{head} takes two types", sx.line, sx.col)
        a, b = build_type(sx.items[1]), build_type(sx.items[2])
        return Sum(a, b) if head == "Sum" else Prod(a, b)
    raise ParseError(f"unknown type constructor {head!r}", sx.line, sx.col)


def build_value(sx) -> ValueExpr:
    if isinstance(sx, SAtom):
        if sx.text == "sole":
            return SOLE
        return Var(_want_name(sx, "variable"))
    if sx.braced:
        raise ParseError("annotation braces are only valid after left/right", sx.line, sx.col)
    if not sx.items:
        raise ParseError("empty value form", sx.line, sx.col)
    head = _want_atom(sx.items[0], "a value constructor")
    if head in ("left", "right"):
        rest = list(sx.items[1:])
        annot = None
        if rest and isinstance(rest[0], SList) and rest[0].braced:
            if len(rest[0].items) != 1:
                raise ParseError("annotation braces hold exactly one type", sx.line, sx.col)
            annot = build_type(rest[0].items[0])
            rest = rest[1:]
        if len(rest) != 1:
            raise ParseError(f"{head} takes one value", sx.line, sx.col)
        inner = build_value(rest[0])
        return Left(inner, annot) if head == "left" else Right(inner, annot)
    if head == "pair":
        if len(sx.items) != 3:
            raise ParseError("pair takes two values", sx.line, sx.col)
        return Pair(build_value(sx.items[1]), build_value(sx.items[2]))
    raise ParseError(f"unknown value constructor {head!r}", sx.line, sx.col)


def build_goal(sx) -> Goal:
    if isinstance(sx, SAtom):
        raise ParseError(f"expected a goal, got {sx.text!r}", sx.line, sx.col)
    if sx.braced or not sx.items:
        raise ParseError("expected a goal", sx.line, sx.col)
    head_sx = sx.items[0]
    head = _want_atom(head_sx, "a goal form")
    args = sx.items[1:]
    if head in ("conj", "disj"):
        if len(args) < 2:
            raise ParseError(f"{head} takes at least two subgoals", sx.line, sx.col)
        goals = [build_goal(a) for a in args]
        node = goals[-1]
        ctor = Conj if head == "conj" else Disj
        for g in reversed(goals[:-1]):
            node = ctor(g, node)
        return node
    if head == "fresh":
        if len(args) != 2:
            raise ParseError("fresh takes a binder list and one body goal", sx.line, sx.col)
        binders_sx = args[0]
        if not isinstance(binders_sx, SList) or binders_sx.braced or not binders_sx.items:
            raise ParseError("fresh needs a non-empty binder list", sx.line, sx.col)
        binders = [_build_param(b) for b in binders_sx.items]
        body = build_goal(args[1])
        for name, ty in reversed(binders):
            body = Fresh(name, ty, body)
        return body
    if head in ("==", "=/="):
        if len(args) != 2:
            raise ParseError(f"{head} takes two values", sx.line, sx.col)
        v1, v2 = build_value(args[0]), build_value(args[1])
        return Unify(v1, v2) if head == "==" else Disunify(v1, v2)
    if head == "factor":
        if len(args) != 1 or not isinstance(args[0], SAtom) or args[0].text == ":":
            raise ParseError("factor takes one weight literal", sx.line, sx.col)
        return Factor(args[0].text)
    if head in RESERVED:
        raise ParseError(f"misplaced {head!r}", sx.line, sx.col)
    return Call(head, tuple(build_value(a) for a in args))


def _is_param_shape(sx) -> bool:
    return (
        isinstance(sx, SList)
        and not sx.braced
        and len(sx.items) == 3
        and isinstance(sx.items[1], SAtom)
        and sx.items[1].text == ":"
    )


def _build_param(sx) -> tuple[str, TypeExpr]:
    if not _is_param_shape(sx):
        line, col = (sx.line, sx.col) if hasattr(sx, "line") else (0, 0)
        raise ParseError("expected (name : type)", line, col)
    name = _want_name(sx.items[0], "variable")
    return name, build_type(sx.items[2])


def _build_defrel(sx) -> RelationDef:
    if not isinstance(sx, SList) or sx.braced or len(sx.items) != 3:
        line, col = (sx.line, sx.col) if isinstance(sx, (SAtom, SList)) else (0, 0)
        raise ParseError("expected (defrel (name params...) goal)", line, col)
    kw = _want_atom(sx.items[0], "defrel")
    if kw != "defrel":
        raise ParseError(f"expected defrel, got {kw!r}", sx.line, sx.col)
    header = sx.items[1]
    if not isinstance(header, SList) or header.braced or not header.items:
        raise ParseError("defrel needs a (name params...) header", sx.line, sx.col)
    name = _want_name(header.items[0], "relation")
    rest = list(header.items[1:])

    tyvars: Optional[tuple[str, ...]] = None
    if rest and isinstance(rest[0], SList) and not rest[0].braced and rest[0].items \
            and isinstance(rest[0].items[0], SAtom) and rest[0].items[0].text == "forall":
        declared = [_want_name(t, "type variable") for t in rest[0].items[1:]]
        if len(set(declared)) != len(declared):
            raise ParseError("duplicate type variable in forall", header.line, header.col)
        tyvars = tuple(declared)
        rest = rest[1:]

    # Accept both a flat parameter list and one wrapped in an extra list.
    if len(rest) == 1 and isinstance(rest[0], SList) and not rest[0].braced \
            and rest[0].items and all(_is_param_shape(p) for p in rest[0].items):
        rest = list(rest[0].items)
    params = [_build_param(p) for p in rest]
    names = [p for p, _ in params]
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate parameter name in relation {name!r}", header.line, header.col)

    if tyvars is None:
        tyvars = tuple(free_type_vars(*(ty for _, ty in params)))

    body = build_goal(sx.items[2])
    supply = _NameSupply(set(names) | var_names(body))
    return RelationDef(name, tyvars, tuple(params),
                       _rename_shadowed(body, set(names), supply))


class _NameSupply:
    """Generates names that collide with none in `used` nor with each other."""

    def __init__(self, used: set[str]):
        self.used = set(used)
        self.counter = 0

    def fresh(self, base: str) -> str:
        while True:
            self.counter += 1
            cand = f"{base}~{self.counter}"
            if cand not in self.used:
                self.used.add(cand)
                return cand

    def relation_name(self, base: str) -> str:
        if base not in self.used:
            self.used.add(base)
            return base
        k = 1
        while f"{base}#{k}" in self.used:
            k += 1
        name = f"{base}#{k}"
        self.used.add(name)
        return name


def _rename_shadowed(body: Goal, params: set[str], supply: _NameSupply) -> Goal:
    """Rename apart fresh binders that shadow an enclosing variable."""

    def rename(v: ValueExpr, env: dict[str, str]) -> ValueExpr:
        return map_value(v, var=lambda u: Var(env.get(u.name, u.name)))

    def walk(g: Goal, scope: set[str], env: dict[str, str]) -> Goal:
        match g:
            case Conj(a, b):
                return Conj(walk(a, scope, env), walk(b, scope, env))
            case Disj(a, b):
                return Disj(walk(a, scope, env), walk(b, scope, env))
            case Fresh(x, ty, inner):
                if x in scope:
                    nx = supply.fresh(x)
                    env = {**env, x: nx}
                else:
                    nx = x
                    env = {k: v for k, v in env.items() if k != x}
                return Fresh(nx, ty, walk(inner, scope | {nx}, env))
            case Unify(v1, v2, ty) | Disunify(v1, v2, ty):
                return type(g)(rename(v1, env), rename(v2, env), ty)
            case Call(rel, args, info):
                return Call(rel, tuple(rename(a, env) for a in args), info)
            case Factor(_):
                return g

    # Scope starts as the parameter names; other body names are only in
    # the supply's used set so generated names never collide with anything
    # in the body.
    return walk(body, set(params), {})


def parse_program(text: str) -> Program:
    """Parse source text into a `Program`, normalizing surface sugar."""
    forms = _read_all(text)
    rels = []
    names: set[str] = set()
    for form in forms:
        rel = _build_defrel(form)
        if rel.name in names:
            raise ParseError(f"duplicate relation name {rel.name!r}", form.line, form.col)
        names.add(rel.name)
        rels.append(rel)
    return Program(tuple(rels))


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
    pad = "  " * indent
    match g:
        case Conj(a, b):
            return f"{pad}(conj\n{render_goal(a, indent + 1)}\n{render_goal(b, indent + 1)})"
        case Disj(a, b):
            return f"{pad}(disj\n{render_goal(a, indent + 1)}\n{render_goal(b, indent + 1)})"
        case Fresh(x, ty, body):
            return f"{pad}(fresh (({x} : {render_type(ty)}))\n{render_goal(body, indent + 1)})"
        case Unify(v1, v2, _):
            return f"{pad}(== {render_value_expr(v1)} {render_value_expr(v2)})"
        case Disunify(v1, v2, _):
            return f"{pad}(=/= {render_value_expr(v1)} {render_value_expr(v2)})"
        case Call(rel, args, _):
            parts = " ".join(render_value_expr(a) for a in args)
            return f"{pad}({rel} {parts})" if parts else f"{pad}({rel})"
        case Factor(lit):
            return f"{pad}(factor {lit})"
    raise TypeError(g)


def render_relation(rel: RelationDef) -> str:
    params = " ".join(f"({x} : {render_type(ty)})" for x, ty in rel.params)
    forall = f"(forall {' '.join(rel.tyvars)}) " if rel.tyvars else ""
    header = f"({rel.name} {forall}{params})" if params or forall else f"({rel.name})"
    return f"(defrel {header}\n{render_goal(rel.body, 1)})"


def render_program(p: Program) -> str:
    return "\n\n".join(render_relation(rel) for rel in p.relations) + ("\n" if p.relations else "")
