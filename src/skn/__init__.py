"""skn: a typed, weighted relational language evaluated bottom-up over
dense semiring arrays, with polymorphic relations compiled away either by
monomorphization or via equality patterns against one large-enough
instance per relation."""

from .semiring import (
    BOOLEAN, MIN_TROPICAL, REAL, SEMIRINGS, SemiringSpec, Weight,
    WeightLiteralError, parse_weight_literal,
)
from .syntax import (
    Call, Conj, Disj, Disunify, Factor, Facts, Fresh, Goal, Left, Pair, ParseError,
    Prod, Program, RelationDef, Right, SOLE, Sole, Sum, TyVar, TypeExpr,
    UNIT, Unify, Unit, ValueExpr, Var, free_type_vars, parse_program,
    render_program, render_type, render_value,
)
from .typecheck import (
    TypeCheckError, TypeEnv, apply_subst, check_goal, check_program,
    check_type_valid, type_of_value,
)
from .eval import (
    FixpointResult, RelTable, eval_relation, fixpoint, type_labels,
    type_size,
)
from .poly import (
    InstanceExplosion, LoweringError, NonIdempotentSemiring, canonical_type,
    compile_call, count_env, enforce_eqpat_codegen, generic_arg_env,
    lower_program, smallest_large_enough,
)

__version__ = "0.1.0"
