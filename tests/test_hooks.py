"""The module attributes the benchmark's tracer (`bench/tracing.py`)
replaces to time each layer, and the pipeline function (`bench/pipeline.py`)
calls.  A refactor that renames one, or stops looking one up through its
module, silently loses a per-layer metric; these tests catch it without
running the benchmark."""
import importlib

import pytest

from skn import REAL
from skn import eval as skn_eval
from skn import poly

from helpers import load, run_source

PATCHED = [
    ("syntax", "parse_program"),
    ("typecheck", "check_program"),
    ("poly", "lower_program"),
    ("poly", "check_program"),
    ("eval", "fixpoint"),
    ("eval", "eval_relation"),
    ("eval", "parse_weight_literal"),
    ("cli", "emit_tables"),
    ("cli", "check_factor_literals"),
]


@pytest.mark.parametrize("module, name", PATCHED)
def test_traced_attribute_exists(module, name):
    assert callable(getattr(importlib.import_module(f"skn.{module}"), name))


def test_inner_calls_go_through_module_attributes(monkeypatch):
    # the re-check, the per-relation evaluation and the literal reads are
    # called from inside skn, so they must be looked up at call time
    seen = set()
    for module, name in [(poly, "check_program"), (skn_eval, "eval_relation"),
                         (skn_eval, "parse_weight_literal")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _f=original, _n=name: seen.add(_n) or _f(*a))
    run_source(load("coins.skn"), REAL)
    assert seen == {"check_program", "eval_relation", "parse_weight_literal"}
