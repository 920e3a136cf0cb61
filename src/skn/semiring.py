"""Commutative semirings that weight tables can be computed over.

A :class:`SemiringSpec` bundles the scalar identities with the numpy
ufuncs the dense evaluator uses, and with how its weights are read from
factor literals and written out, so the rest of the engine never needs to
know which instance is active.  Three instances are provided: boolean
(or/and), real (+/*), and min-tropical (min/+).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

Weight = Union[bool, float]


class WeightLiteralError(ValueError):
    """Raised when a factor literal is not in the active semiring's carrier."""


@dataclass(frozen=True)
class SemiringSpec:
    name: str
    zero: Weight
    one: Weight
    add: Callable  # commutative, associative; binary ufunc, reducible
    mul: Callable  # commutative, associative, distributes over add
    # The product of stacks of matrices, (b, l, k) and (b, k, r), summed
    # over k; None: eval's generic loop of `mul` and `add.reduce`.
    matmul: Optional[Callable]
    idempotent_add: bool
    field: bool  # the carrier is a field: a recursive group may be solved linearly
    dtype: np.dtype
    read_literal: Callable[[str], Optional[Weight]]  # None: not in the carrier
    render: Callable[[Weight], str]  # text of one weight

    def __repr__(self) -> str:
        return f"SemiringSpec({self.name!r})"


_BOOL_LITERALS = {
    "true": True, "#t": True, "1": True,
    "false": False, "#f": False, "0": False,
}
_DECIMAL = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")


def _read_decimal(text: str) -> Optional[float]:
    # A decimal that overflows to +-inf is outside every carrier: -inf
    # would break the min-tropical annihilator law below.
    if _DECIMAL.match(text):
        w = float(text)
        if math.isfinite(w):
            return w
    return None


def _boolean_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A sum of 0/1 terms is positive exactly when one term is 1, and float32
    # rounding never takes a positive partial sum of them back to 0, so the
    # test is exact at any size.
    return np.matmul(a.astype(np.float32), b.astype(np.float32)) > 0


def _render_float(w: Weight) -> str:
    w = float(w)
    return "inf" if w == math.inf else repr(w)


BOOLEAN = SemiringSpec(
    name="boolean",
    zero=False,
    one=True,
    add=np.logical_or,
    mul=np.logical_and,
    matmul=_boolean_matmul,
    idempotent_add=True,
    field=False,
    dtype=np.dtype(bool),
    read_literal=_BOOL_LITERALS.get,
    render=lambda w: "true" if bool(w) else "false",
)

REAL = SemiringSpec(
    name="real",
    zero=0.0,
    one=1.0,
    add=np.add,
    mul=np.multiply,
    matmul=np.matmul,
    idempotent_add=False,
    field=True,
    dtype=np.dtype(np.float64),
    read_literal=_read_decimal,
    render=_render_float,
)

# The zero is +inf; mul is real addition, and since the carrier has no -inf
# the annihilator law inf + x = inf holds under IEEE arithmetic as well.
MIN_TROPICAL = SemiringSpec(
    name="min-tropical",
    zero=math.inf,
    one=0.0,
    add=np.minimum,
    mul=np.add,
    matmul=None,
    idempotent_add=True,
    field=False,
    dtype=np.dtype(np.float64),
    read_literal=lambda text: math.inf if text == "inf" else _read_decimal(text),
    render=_render_float,
)

SEMIRINGS = {s.name: s for s in (BOOLEAN, REAL, MIN_TROPICAL)}


def parse_weight_literal(text: str, semiring: SemiringSpec) -> Weight:
    """Read a factor literal as an element of `semiring`.

    boolean accepts true/false/#t/#f/0/1; real accepts finite decimal
    literals; min-tropical accepts finite decimal literals and `inf`.
    """
    w = semiring.read_literal(text)
    if w is None:
        raise WeightLiteralError(
            f"cannot read weight literal {text!r} under the {semiring.name} semiring"
        )
    return w
