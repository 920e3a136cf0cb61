"""The tests' definition of an equality pattern.

Two value environments over the same generic types carry the same
equality pattern when their shells (the values with every variable-typed
sub-value replaced by a hole) coincide and, per type variable, the same
pairs of holes hold equal values.  The large-enough lowering in
``skn.poly`` enforces this in generated code; the property and lowering
suites check that code against these definitions.
"""
from dataclasses import dataclass

from skn.syntax import (
    Left, Pair, Prod, Right, SOLE, Sole, Sum, TyVar, TypeExpr, Unit, ValueExpr,
    free_type_vars, render_type,
)


@dataclass(frozen=True)
class Hole:
    tyvar: str


# A shell is a value tree whose variable-typed sub-values are Hole leaves.
Shell = object


def shell_of(t: TypeExpr, v: ValueExpr) -> Shell:
    match (t, v):
        case (TyVar(name), _):
            return Hole(name)
        case (Unit(), Sole()):
            return SOLE
        case (Sum(a, _), Left(inner, _)):
            return Left(shell_of(a, inner))
        case (Sum(_, b), Right(inner, _)):
            return Right(shell_of(b, inner))
        case (Prod(a, b), Pair(v1, v2)):
            return Pair(shell_of(a, v1), shell_of(b, v2))
    raise ValueError(f"value {v!r} does not fit type {render_type(t)}")


def holes_of(alpha: str, t: TypeExpr, v: ValueExpr) -> list[ValueExpr]:
    """Values of the alpha-holes in `v`, in-order."""
    match (t, v):
        case (TyVar(name), _):
            return [v] if name == alpha else []
        case (Unit(), Sole()):
            return []
        case (Sum(a, _), Left(inner, _)):
            return holes_of(alpha, a, inner)
        case (Sum(_, b), Right(inner, _)):
            return holes_of(alpha, b, inner)
        case (Prod(a, b), Pair(v1, v2)):
            return holes_of(alpha, a, v1) + holes_of(alpha, b, v2)
    raise ValueError(f"value {v!r} does not fit type {render_type(t)}")


def envshell(delta_types, env: dict) -> dict:
    return {x: shell_of(ty, env[x]) for x, ty in delta_types}


def envholes(alpha: str, delta_types, env: dict) -> list[ValueExpr]:
    out: list[ValueExpr] = []
    for x, ty in delta_types:
        out.extend(holes_of(alpha, ty, env[x]))
    return out


def eqpat_check(delta_types, env1: dict, env2: dict) -> bool:
    """Do two value environments carry the same equality pattern?

    True iff their shells coincide and, per type variable, positions i, j
    hold equal holes in one environment exactly when they do in the other.
    """
    delta_types = tuple(delta_types)
    if envshell(delta_types, env1) != envshell(delta_types, env2):
        return False
    for alpha in free_type_vars(*(ty for _, ty in delta_types)):
        hs1 = envholes(alpha, delta_types, env1)
        hs2 = envholes(alpha, delta_types, env2)
        assert len(hs1) == len(hs2)  # shells agree, so hole counts agree
        for i in range(len(hs1)):
            for j in range(i + 1, len(hs1)):
                if (hs1[i] == hs1[j]) != (hs2[i] == hs2[j]):
                    return False
    return True
