"""Seeded random generators: types, values, environments with a chosen
equality pattern, and whole well-typed programs."""
import random

from skn.poly import canonical_type, smallest_large_enough
from skn.syntax import (
    Left, Pair, Prod, Program, Right, SOLE, Sum, TyVar, Unit, UNIT, Var,
    parse_program, render_type,
)
from skn.typecheck import apply_subst, check_program
from skn.eval import enumerate_type, type_size

CONCRETE_TYPES = [
    UNIT,
    Sum(UNIT, UNIT),
    Sum(UNIT, Sum(UNIT, UNIT)),
    Prod(UNIT, Sum(UNIT, UNIT)),
    Prod(Sum(UNIT, UNIT), UNIT),
]  # sizes 1, 2, 3, 2, 2


def random_concrete_type(rng: random.Random, max_size: int = 3):
    while True:
        t = rng.choice(CONCRETE_TYPES)
        if type_size(t) <= max_size:
            return t


def random_generic_type(rng: random.Random, tyvars, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        if tyvars and rng.random() < 0.7:
            return TyVar(rng.choice(tyvars))
        return UNIT
    ctor = rng.choice([Sum, Prod])
    return ctor(random_generic_type(rng, tyvars, depth - 1),
                random_generic_type(rng, tyvars, depth - 1))


def random_value(t, rng: random.Random):
    return rng.choice(enumerate_type(t))


def random_delta(rng: random.Random, tyvars, n_vars=None):
    """A generic type environment over `tyvars`, every tyvar represented."""
    n = n_vars or rng.randint(1, 3)
    delta = []
    for i in range(n):
        delta.append((f"x{i}", random_generic_type(rng, tyvars)))
    present = {tv for _, ty in delta for tv in _tyvars_of(ty)}
    for tv in tyvars:
        if tv not in present:
            delta.append((f"x{len(delta)}", TyVar(tv)))
    return tuple(delta)


def _tyvars_of(t):
    if isinstance(t, TyVar):
        return [t.name]
    if isinstance(t, (Sum, Prod)):
        a, b = (t.left, t.right) if isinstance(t, Sum) else (t.first, t.second)
        return _tyvars_of(a) + _tyvars_of(b)
    return []


def random_sigma(rng: random.Random, tyvars, min_size: int = 1, max_size: int = 4):
    sigma = {}
    for tv in tyvars:
        while True:
            t = rng.choice(CONCRETE_TYPES + [Sum(UNIT, Sum(UNIT, Sum(UNIT, UNIT)))])
            if min_size <= type_size(t) <= max_size:
                sigma[tv] = t
                break
    return sigma


def random_env(delta, sigma, rng: random.Random):
    return {x: random_value(apply_subst(sigma, ty), rng) for x, ty in delta}


def eqpat_partner(delta, env1, sigma2, rng: random.Random):
    """Build env2 with the same equality pattern as env1, typed under
    `sigma2`: copy the shell, reuse a previously chosen hole value when
    env1 repeats one, otherwise pick an unused value of the new type.

    Requires each |sigma2(a)| to be at least the number of a-holes in the
    whole environment.
    """
    holes1 = {}
    holes2 = {}

    def extend(ty, v1):
        if isinstance(ty, TyVar):
            a = ty.name
            pool, pool2 = holes1.setdefault(a, []), holes2.setdefault(a, [])
            v2 = None
            for j, old in enumerate(pool):
                if old == v1:
                    v2 = pool2[j]
                    break
            if v2 is None:
                used = set(map(_freeze, pool2))
                fresh = [c for c in enumerate_type(sigma2[a]) if _freeze(c) not in used]
                v2 = rng.choice(fresh)
            pool.append(v1)
            pool2.append(v2)
            return v2
        if isinstance(ty, Unit):
            return SOLE
        if isinstance(ty, Sum):
            if isinstance(v1, Left):
                return Left(extend(ty.left, v1.inner))
            return Right(extend(ty.right, v1.inner))
        if isinstance(ty, Prod):
            return Pair(extend(ty.first, v1.first), extend(ty.second, v1.second))
        raise TypeError(ty)

    return {x: extend(ty, env1[x]) for x, ty in delta}


def _freeze(v):
    return repr(v)


# ---------------------------------------------------------------------------
# random well-typed programs

class _ProgramBuilder:
    def __init__(self, rng: random.Random, max_goal_depth: int = 5,
                 large_calls: bool = False):
        self.rng = rng
        self.max_goal_depth = max_goal_depth
        self.large_calls = large_calls
        self.defs = []   # (name, tyvars, params) in definition order
        self.bounds = {}  # name -> large-enough size per tyvar
        self.exposed = None  # parameters the relation being built gains
        self.lines = []
        self.var_counter = 0

    def fresh_var(self):
        self.var_counter += 1
        return f"v{self.var_counter}"

    def gen_value_of(self, ty, env):
        """A value expression of exactly `ty` under `env`; None if stuck."""
        rng = self.rng
        candidates = [x for x, t in env if t == ty]
        if candidates and (isinstance(ty, TyVar) or rng.random() < 0.6):
            return Var(rng.choice(candidates))
        if isinstance(ty, TyVar):
            return None
        if isinstance(ty, Unit):
            return "sole"
        if isinstance(ty, Sum):
            side = rng.choice(["left", "right"])
            inner = self.gen_value_of(ty.left if side == "left" else ty.right, env)
            if inner is None:
                return None
            return f"({side} {{{render_type(ty)}}} {_vtext(inner)})"
        if isinstance(ty, Prod):
            a = self.gen_value_of(ty.first, env)
            b = self.gen_value_of(ty.second, env)
            if a is None or b is None:
                return None
            return f"(pair {_vtext(a)} {_vtext(b)})"
        raise TypeError(ty)

    def gen_goal(self, depth, env, tyvars, self_name=None):
        rng = self.rng
        moves = ["eq", "neq", "factor"]
        if depth > 0:
            moves += ["conj", "conj", "disj", "disj", "fresh", "fresh"]
            if self.defs or self_name:
                moves += ["call", "call"]
        move = rng.choice(moves)

        if move in ("conj", "disj"):
            g1 = self.gen_goal(depth - 1, env, tyvars, self_name)
            g2 = self.gen_goal(depth - 1, env, tyvars, self_name)
            return f"({move} {g1} {g2})"
        if move == "fresh":
            x = self.fresh_var()
            ty = random_generic_type(rng, tyvars) if tyvars and rng.random() < 0.5 \
                else random_concrete_type(rng)
            body = self.gen_goal(depth - 1, env + [(x, ty)], tyvars, self_name)
            return f"(fresh (({x} : {render_type(ty)})) {body})"
        if move == "factor":
            return f"(factor {rng.choice(['0', '1', '1'])})"
        if move == "call":
            return self.gen_call(depth, env, tyvars, self_name)
        # eq / neq
        x, ty = rng.choice(env)
        other = self.gen_value_of(ty, env)
        if other is None:
            other = Var(x)
        op = "==" if move == "eq" else "=/="
        return f"({op} {x} {_vtext(other)})"

    def gen_call(self, depth, env, tyvars, self_name):
        rng = self.rng
        pool = list(self.defs)
        if self_name is not None and not tyvars and rng.random() < 0.3:
            pool = pool + [self_name]
        if not pool:
            return self.gen_goal(0, env, tyvars, self_name)
        choice = rng.choice(pool)
        if choice == self_name:
            # recursive self-call on our own parameters
            args = " ".join(x for x, _ in env[: self._self_arity])
            return f"({self_name} {args})"
        name, callee_tyvars, callee_params = choice
        along = False  # whether to build the arguments along the callee's types
        if callee_tyvars:
            if tyvars and rng.random() < 0.3:
                sigma = {tv: TyVar(rng.choice(tyvars)) for tv in callee_tyvars}
            elif self.large_calls:
                sigma = {tv: canonical_type(n + rng.randint(0, 2))
                         for tv, n in self.bounds[name].items()}
                along = True
            else:
                sigma = random_sigma(rng, callee_tyvars, max_size=3)
        else:
            sigma = {}
        needed = [apply_subst(sigma, ty) for ty in callee_params]
        binders = []
        args = []
        scope = list(env)
        for pattern, ty in zip(callee_params, needed):
            v = self.gen_arg_along(pattern, sigma, scope, binders) if along \
                else self.gen_value_of(ty, scope)
            if v is None or (not along and rng.random() < 0.3):
                x = self.fresh_var()
                binders.append((x, ty))
                scope.append((x, ty))
                v = Var(x)
            args.append(v)
        call = f"({name} {' '.join(_vtext(a) for a in args)})"
        for x, ty in reversed(binders):
            call = f"(fresh (({x} : {render_type(ty)})) {call})"
        return call

    def gen_arg_along(self, pattern, sigma, scope, binders):
        """A value of type sigma(pattern) with a variable at each of
        `pattern`'s type-variable positions, so that the call can be typed
        generically unless a variable lands at two generic types.  A new
        variable is added to `scope`, and to `binders` or, where the
        relation exposes its call arguments, to its parameters."""
        rng = self.rng
        ty = apply_subst(sigma, pattern)
        if isinstance(pattern, TyVar) or rng.random() < 0.3:
            candidates = [x for x, t in scope if t == ty]
            if candidates and rng.random() < 0.5:
                return Var(rng.choice(candidates))
            x = self.fresh_var()
            (binders if self.exposed is None else self.exposed).append((x, ty))
            scope.append((x, ty))
            return Var(x)
        if isinstance(pattern, Unit):
            return "sole"
        if isinstance(pattern, Sum):
            side = rng.choice(["left", "right"])
            inner = self.gen_arg_along(pattern.left if side == "left" else pattern.right,
                                       sigma, scope, binders)
            return f"({side} {{{render_type(ty)}}} {_vtext(inner)})"
        a = self.gen_arg_along(pattern.first, sigma, scope, binders)
        b = self.gen_arg_along(pattern.second, sigma, scope, binders)
        return f"(pair {_vtext(a)} {_vtext(b)})"

    def add_relation(self, name, tyvars, recursive=False):
        rng = self.rng
        params = []
        for i in range(rng.randint(1, 2)):
            ty = random_generic_type(rng, tyvars) if tyvars \
                else random_concrete_type(rng)
            params.append((f"p{i}", ty))
        present = {tv for _, ty in params for tv in _tyvars_of(ty)}
        for tv in tyvars:
            if tv not in present:
                params.append((f"p{len(params)}", TyVar(tv)))
        self._self_arity = len(params)
        # With large calls, a non-recursive monomorphic relation takes the
        # new variables of its calls' arguments as parameters, so that its
        # table shows the callee's weight at each argument.
        self.exposed = [] if self.large_calls and not tyvars and not recursive else None
        body = self.gen_goal(self.max_goal_depth, list(params), list(tyvars),
                             self_name=name if recursive else None)
        params += self.exposed or []
        sig = " ".join(f"({x} : {render_type(ty)})" for x, ty in params)
        forall = f"(forall {' '.join(tyvars)}) " if tyvars else ""
        self.lines.append(f"(defrel ({name} {forall}{sig})\n  {body})")
        self.defs.append((name, tuple(tyvars), tuple(ty for _, ty in params)))
        if tyvars:
            rel = parse_program(self.lines[-1] + "\n").relations[0]
            self.bounds[name] = smallest_large_enough(rel)


def _vtext(v):
    if isinstance(v, Var):
        return v.name
    return v


def random_program(seed: int, max_goal_depth: int = 5, large_calls: bool = False) -> str:
    """A random well-typed program: up to two polymorphic relations and
    at least one monomorphic one that drives calls into them.  With
    `large_calls`, a call at concrete types draws each type variable's
    size from the callee's large-enough bound up to the bound + 2, and
    builds its arguments along the callee's parameter types, so that the
    large-enough lowering keeps most such calls as wrappers."""
    rng = random.Random(seed)
    b = _ProgramBuilder(rng, max_goal_depth, large_calls)
    total = rng.randint(1, 3)
    n_poly = rng.randint(0, total - 1)
    tyvar_sets = [["a"], ["a", "b"]]
    for i in range(n_poly):
        b.add_relation(f"poly{i}", rng.choice(tyvar_sets))
    for i in range(total - n_poly):
        b.add_relation(f"root{i}", (), recursive=rng.random() < 0.4)
    source = "\n\n".join(b.lines) + "\n"
    check_program(parse_program(source))  # must hold by construction
    return source
