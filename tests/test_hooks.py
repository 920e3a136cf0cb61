"""The module attributes the benchmark's tracer (`bench/tracing.py`)
replaces to time each layer, and the pipeline function (`bench/pipeline.py`)
calls.  A refactor that renames one, or stops looking one up through its
module, silently loses a per-layer metric; these tests catch it without
running the benchmark."""
import importlib

import pytest

from skn import BOOLEAN, MIN_TROPICAL, REAL, fixpoint, lower_program
from skn import eval as skn_eval
from skn import poly

from helpers import CORPUS, chain_source, checked, load, reach_source, run_source

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


@pytest.mark.parametrize("name", CORPUS + ["chain-6", "reach-64"])
def test_on_round_contract(monkeypatch, name):
    # the tracer and the monotonicity property read old[name] for every
    # name in new, and expect to see every relation's table at least once;
    # reach-64 under min-tropical runs most rounds from the last one's
    # changes, and `new` still holds each relation's whole table
    source = {"chain-6": chain_source(6), "reach-64": reach_source(64)}.get(name) or load(name)
    spec = {"coins.skn": REAL, "reach-64": MIN_TROPICAL}.get(name, BOOLEAN)
    lowered = lower_program(checked(source), "monomorphize", spec)
    seen, deltas = set(), []
    delta_round = skn_eval._delta_round
    monkeypatch.setattr(skn_eval, "_delta_round", lambda *a: deltas.append(a) or delta_round(*a))

    def watch(_round, old, new):
        assert new.keys() <= old.keys()
        assert all(t.cells.shape == old[n].cells.shape for n, t in new.items())
        seen.update(new)

    fixpoint(lowered, spec, on_round=watch)
    assert seen == set(lowered.names())
    assert bool(deltas) == (name == "reach-64")
