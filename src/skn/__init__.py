"""skn: a typed, weighted relational language evaluated bottom-up over
dense semiring arrays, with polymorphic relations compiled away either by
monomorphization or via equality patterns against one large-enough
instance per relation."""

from .semiring import (
    BOOLEAN, MIN_TROPICAL, REAL, SEMIRINGS, SemiringSpec, Weight,
    WeightLiteralError, parse_weight_literal, render_weight,
)
from .syntax import (
    Call, Conj, Disj, Disunify, Factor, Fresh, Goal, Left, Pair, ParseError,
    Prod, Program, RelationDef, Right, SOLE, Sole, Sum, TyVar, TypeExpr,
    UNIT, Unify, Unit, ValueExpr, Var, free_type_vars, parse_program,
    render_program, render_type, render_value,
)
from .typecheck import (
    CallInfo, TypeCheckError, TypeEnv, apply_subst, check_goal,
    check_program, check_type_valid, type_of_value,
)
from .eval import (
    FixpointResult, RelTable, enumerate_type, eval_relation, fixpoint,
    type_size,
)
from .poly import (
    InstanceExplosion, LargeEnoughCall, LoweringError, NonGenericCall,
    NonIdempotentSemiring, canonical_type, compile_call, generic_arg_env,
    count_env, count_goal, count_relation, count_type, enforce_eqpat_codegen,
    instantiate_relation, lower_program, smallest_large_enough,
)

__version__ = "0.1.0"
