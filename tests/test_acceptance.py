"""Acceptance suite: every exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""
import collections
import math

import numpy as np
import pytest

from skn import (
    BOOLEAN, MIN_TROPICAL, REAL, check_program, fixpoint, lower_program,
    parse_program,
)
from skn.cli import emit_tables
from skn.semiring import parse_weight_literal

import gen
import oracle
import props
from helpers import (
    CORPUS, IDEMPOTENT_CORPUS, InstanceKey, checked, collect_instances, load,
    run_source, skewed_coins_source,
)


def _report(n, text):
    print(f"PASS  criterion {n}: {text}")


# ---------------------------------------------------------------------------

def test_criterion_1_unfair_coin_weights():
    _, res = run_source(load("coins.skn"), REAL, epsilon=1e-9, max_iters=200)
    cells = res.tables["unfair-coin-flip"].cells
    assert abs(cells[0] - 0.7) <= 1e-12
    assert abs(cells[1] - 0.3) <= 1e-12
    _report(1, "unfair-coin-flip weighs [0.7, 0.3] exactly (tol 1e-12)")


def test_criterion_2_fair_coin_fixpoint():
    _, res = run_source(load("coins.skn"), REAL, epsilon=1e-9, max_iters=200)
    assert res.converged and res.iterations <= 200
    w = 0.0  # independent recurrence for the same fixpoint
    for _ in range(200):
        w = 0.58 * w + 0.21
    assert abs(w - 0.5) < 1e-6
    for cell in res.tables["fair-coin-flip"].cells:
        assert abs(cell - 0.5) < 1e-6
    _report(2, f"fair-coin-flip converges to [0.5, 0.5] within 1e-6 "
               f"in {res.iterations} iterations")


def test_criterion_2b_skewed_fair_coin_solved_exactly():
    # a stop on two close rounds ends far from the fixed point at this
    # skew; the affine group is solved instead, in one round
    rounds = collections.Counter()
    lowered = lower_program(checked(skewed_coins_source()), "monomorphize", REAL)
    res = fixpoint(lowered, REAL, epsilon=1e-9,
                   on_round=lambda _it, _old, new: rounds.update(new.keys()))
    assert res.converged
    assert rounds["fair-coin-flip"] == 1
    for cell in res.tables["fair-coin-flip"].cells:
        assert abs(cell - 0.5) <= 1e-9
    _report("2b", "fair-coin-flip at p = 0.99 is within 1e-9 of 0.5 after one round")


def test_criterion_3_boolean_reachability():
    _, res = run_source(load("connect.skn"), BOOLEAN)
    want = np.array([
        [True, True, True, False],
        [True, True, True, False],
        [False, False, False, False],
        [False, False, True, False],
    ])
    assert np.array_equal(res.tables["connect"].cells, want)
    _report(3, "boolean connect reproduces the reachability table (16/16 cells)")


def test_criterion_4_tropical_shortest_paths():
    _, res = run_source(load("connect.skn"), MIN_TROPICAL)
    inf = math.inf
    want = np.array([
        [2.0, 1.0, 2.0, inf],
        [1.0, 2.0, 1.0, inf],
        [inf, inf, inf, inf],
        [inf, inf, 1.0, inf],
    ])
    assert np.array_equal(res.tables["connect"].cells, want)
    assert res.tables["connect"].cells[0, 0] == 2.0
    _report(4, "min-tropical connect reproduces the shortest-path table, "
               "including every inf cell and (0,0) -> 2")


SWAP_33 = np.array([
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
], dtype=bool)

SWAP_34 = np.array([
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
], dtype=bool)


def test_criterion_5_sum_swap_monomorphized_matrices():
    _, res = run_source(load("sum-swap.skn"), BOOLEAN, "monomorphize")
    assert np.array_equal(res.tables["sum-swap$3_3"].cells, SWAP_33)
    assert np.array_equal(res.tables["sum-swap$3_4"].cells, SWAP_34)
    assert np.array_equal(res.tables["sum-swap-3-3"].cells, SWAP_33)
    assert np.array_equal(res.tables["sum-swap-3-4"].cells, SWAP_34)
    _report(5, "monomorphized sum-swap matches the 6x6 and 7x7 matrices exactly")


def test_criterion_6_large_enough_serves_bigger_call():
    program = check_program(parse_program(load("sum-swap.skn")))
    keys = collect_instances(program, "large-enough")
    swap_keys = {k for k in keys if k.rel == "sum-swap"}
    assert swap_keys == {InstanceKey("sum-swap", (("a", 3), ("b", 3)))}
    lowered, res = run_source(load("sum-swap.skn"), BOOLEAN, "large-enough")
    assert "sum-swap$3_4" not in lowered.names()
    assert np.array_equal(res.tables["sum-swap-3-4"].cells, SWAP_34)
    _report(6, "large-enough mode serves the (3,4) call from the single "
               "(3,3) instance and still yields the exact 7x7 matrix")


def test_criterion_7_two_valued_gating():
    for mode in ("monomorphize", "large-enough"):
        lowered, res = run_source(load("two-valued.skn"), BOOLEAN, mode)
        assert res.tables["two-valued-2"].cells.tolist() == [True, True]
        assert res.tables["two-valued-1"].cells.tolist() == [False]
        # the size-1 call fell back to its own monomorphic instance
        assert "two-valued$1" in lowered.names()
    _report(7, "two-valued yields [1,1] at size 2 and [0] at size 1 in both modes")


def test_criterion_8_differential_modes_on_random_programs():
    compared = 0
    for seed in range(100):
        src = gen.random_program(seed, max_goal_depth=5)
        for spec in (BOOLEAN, MIN_TROPICAL):
            results = {}
            for mode in ("monomorphize", "large-enough"):
                lowered, res = run_source(src, spec, mode)
                assert res.converged, (seed, spec.name, mode)
                results[mode] = (lowered, res)
            lowered_m, res_m = results["monomorphize"]
            lowered_l, res_l = results["large-enough"]
            shared = [rel.name for rel in lowered_m.relations
                      if rel.name in res_l.tables
                      and res_l.tables[rel.name].params == tuple(rel.params)]
            assert shared, seed
            text_m = emit_tables([res_m.tables[n] for n in shared], "tsv", spec)
            text_l = emit_tables([res_l.tables[n] for n in shared], "tsv", spec)
            assert text_m == text_l, (seed, spec.name)
            compared += len(shared)
    assert compared >= 100
    _report(8, f"100 random programs produce byte-identical shared tables "
               f"under both poly modes ({compared} tables compared)")


def test_criterion_9_property_suites():
    counts = {}
    counts["semiring-axioms-boolean"] = props.check_semiring_axioms(BOOLEAN, 1000)
    counts["semiring-axioms-real"] = props.check_semiring_axioms(REAL, 1000)
    counts["semiring-axioms-tropical"] = props.check_semiring_axioms(MIN_TROPICAL, 1000)
    counts["index-bijection"] = props.check_index_bijection(1000)
    counts["values-shells-holes"] = props.check_values_shells_holes()
    counts["eqpat-equivalence"] = props.check_eqpat_equivrel(1000)
    counts["eqpat-substitution"] = props.check_eqpat_substitution(1000)
    counts["enforce-eqpat"] = props.check_enforce_eqpat()
    counts["no-factor-weight"] = props.check_no_factor_weight(500)
    counts["boolean-monotonicity"] = props.check_boolean_monotonicity(
        [load(n) for n in IDEMPOTENT_CORPUS]
        + [gen.random_program(s) for s in range(200, 300)])
    exhaustive_ok = {"semiring-axioms-boolean"}  # two-element carrier: 8 triples
    for name, n in counts.items():
        assert n >= 1000 or name in exhaustive_ok, (name, n)
    _report(9, "property suites all pass: " +
            ", ".join(f"{k}={v}" for k, v in counts.items()))


def test_criterion_10_scalar_reference_matches_array_engine():
    def compare(source, spec, atol=0.0):
        lowered, res = run_source(source, spec)
        assert res.converged
        gamma = {n: t.cells for n, t in res.tables.items()}
        param_types = {r.name: [ty for _, ty in r.params] for r in lowered.relations}
        lit = lambda text: parse_weight_literal(text, spec)
        cells = 0
        for rel in lowered.relations:
            want = oracle.relation_cells(rel, gamma, spec.name, param_types, lit)
            table = res.tables[rel.name]
            for pos, w in want.items():
                got = table.cells[pos]
                if atol:
                    assert abs(float(got) - float(w)) <= atol, (rel.name, pos)
                else:
                    assert got == w, (rel.name, pos, got, w)
                cells += 1
        return cells

    total = 0
    for name in IDEMPOTENT_CORPUS:
        total += compare(load(name), BOOLEAN)
        total += compare(load(name), MIN_TROPICAL)
    total += compare(load("coins.skn"), REAL, atol=1e-6)
    for seed in range(100):
        src = gen.random_program(seed)
        total += compare(src, BOOLEAN)
        if seed < 30:
            total += compare(src, MIN_TROPICAL)
    _report(10, f"reference evaluator agrees with the array engine "
                f"cell-for-cell ({total} cells)")
