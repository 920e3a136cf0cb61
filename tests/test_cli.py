import io
import itertools
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from skn import SEMIRINGS, cli, lower_program, poly, render_value
from skn import eval as skn_eval
from skn.cli import RunConfig, diff_modes, load_program, main, run
from skn.eval import RelTable
from skn.poly import canonical_type

import oracle
from helpers import CORPUS, IDEMPOTENT_CORPUS, PROGRAM_DIR, chain_source, load, paths_source


def path(name):
    return os.path.join(PROGRAM_DIR, name)


def run_capture(cfg):
    out, err = io.StringIO(), io.StringIO()
    status = run(cfg, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def test_connect_boolean_tsv():
    cfg = RunConfig(path("connect.skn"), "boolean", relations=["connect"])
    status, out, err = run_capture(cfg)
    assert status == 0 and not err
    lines = out.strip().splitlines()
    assert lines[0] == "# connect"
    assert lines[1] == "x\ty\tweight"
    assert lines[2] == "(left sole)\t(left sole)\ttrue"
    assert len(lines) == 18
    assert out.count("\ttrue") == 7  # seven reachable pairs


def test_connect_tropical_has_inf_cells():
    cfg = RunConfig(path("connect.skn"), "min-tropical", relations=["connect"])
    status, out, _ = run_capture(cfg)
    assert status == 0
    assert "\tinf" in out
    assert "(left sole)\t(left sole)\t2.0" in out


def test_unfair_coin_rows():
    cfg = RunConfig(path("coins.skn"), "real", relations=["unfair-coin-flip"])
    status, out, _ = run_capture(cfg)
    assert status == 0
    assert "(left sole)\t0.7" in out
    assert "(right sole)\t0.3" in out


def test_two_valued_small_instance_row():
    cfg = RunConfig(path("two-valued.skn"), "boolean", poly_mode="large-enough",
                    relations=["two-valued$1"])
    status, out, _ = run_capture(cfg)
    assert status == 0
    assert out.strip().splitlines()[-1] == "sole\tfalse"


def test_empty_program_emits_nothing():
    empty = os.path.join(PROGRAM_DIR, "..", "empty.skn")
    with open(empty, "w") as fh:
        fh.write("; nothing\n")
    try:
        status, out, err = run_capture(RunConfig(empty, "boolean"))
        assert status == 0 and out == "" and not err
    finally:
        os.remove(empty)


def test_parse_error_exit_code():
    bad = os.path.join(PROGRAM_DIR, "..", "bad.skn")
    with open(bad, "w") as fh:
        fh.write("(defrel (r (x : Unit)) (conj))\n")
    try:
        status, _, err = run_capture(RunConfig(bad, "boolean"))
        assert status == 1 and "error" in err
    finally:
        os.remove(bad)


def test_weight_literal_error_is_load_time():
    status, _, err = run_capture(RunConfig(path("coins.skn"), "boolean"))
    assert status == 1
    assert "0.7" in err and "boolean" in err


def test_first_bad_literal_in_source_order_is_reported(tmp_path):
    # five distinct literals outside boolean's carrier, each written twice
    lits = ["0.9", "0.25", "0.5", "0.75", "0.125"]
    goals = " ".join(f"(factor {lit})" for lit in lits + lits[::-1])
    src = tmp_path / "lits.skn"
    src.write_text(f"(defrel (r (x : Unit)) (disj {goals}))\n")
    status, out, err = run_capture(RunConfig(str(src), "boolean"))
    assert status == 1 and out == ""
    assert [lit for lit in lits if repr(lit) in err] == ["0.9"]


def test_byte_order_mark_is_dropped(tmp_path):
    src = tmp_path / "bom.skn"
    src.write_bytes(b"\xef\xbb\xbf" + Path(path("coins.skn")).read_bytes())
    want = run_capture(RunConfig(path("coins.skn"), "real"))
    assert want[0] == 0 and run_capture(RunConfig(str(src), "real")) == want


@pytest.mark.parametrize("semiring", ["real", "min-tropical"])
def test_non_finite_literal_exit_code(tmp_path, semiring):
    src = tmp_path / "big.skn"
    src.write_text("(defrel (big (x : Unit)) (factor 1e400))\n")
    status, out, err = run_capture(RunConfig(str(src), semiring))
    assert status == 1 and out == ""
    assert "1e400" in err


def test_lowering_error_exit_code():
    status, _, err = run_capture(
        RunConfig(path("equal.skn"), "real", poly_mode="large-enough"))
    assert status == 2
    assert "idempotent" in err



def test_instance_limit_exit_code(tmp_path, monkeypatch):
    # two instances of `same` demanded, one allowed
    monkeypatch.setattr(poly, "MAX_INSTANCES", 1)
    src = tmp_path / "two.skn"
    src.write_text("(defrel (same (x : a)) (== x x))\n"
                   "(defrel (main (u : Unit) (b : (Sum Unit Unit))) (conj (same u) (same b)))\n")
    with pytest.raises(poly.InstanceExplosion, match="more than 1 relation instances"):
        lower_program(load_program(src.read_text(), SEMIRINGS["boolean"]), "monomorphize",
                      SEMIRINGS["boolean"])
    status, out, err = run_capture(RunConfig(str(src), "boolean"))
    assert (status, out) == (2, "")
    assert err == "error: more than 1 relation instances requested\n"

def test_non_convergence_exit_code(tmp_path):
    src = tmp_path / "diverge.skn"
    src.write_text("(defrel (grow (x : Unit))"
                   " (disj (factor 1) (conj (factor 2.0) (grow x))))\n")
    status, out, err = run_capture(RunConfig(str(src), "real", max_iters=30))
    assert status == 3
    assert "did not converge" in err
    assert "# grow" in out  # last tables still emitted


def test_unknown_relation_filter():
    cfg = RunConfig(path("connect.skn"), "boolean", relations=["ghost"])
    status, _, err = run_capture(cfg)
    assert status == 1 and "ghost" in err


@pytest.mark.parametrize("mode, instances", [
    ("monomorphize", "sum-swap$3_3, sum-swap$3_4"), ("large-enough", "sum-swap$3_3"),
])
def test_polymorphic_relation_filter_names_its_instances(tmp_path, mode, instances):
    # sum-swap has no table of its own: its tables are those of the instances
    # its callers made the run build, and a run with no caller builds none
    cfg = RunConfig(path("sum-swap.skn"), "boolean", poly_mode=mode, relations=["sum-swap"])
    assert run_capture(cfg) == \
        (1, "", f"error: sum-swap is polymorphic; its instances in this run are {instances}\n")
    alone = tmp_path / "alone.skn"
    alone.write_text(load("sum-swap.skn").split("\n\n")[0] + "\n")
    cfg = RunConfig(str(alone), "boolean", poly_mode=mode, relations=["ghost", "sum-swap"])
    assert run_capture(cfg) == \
        (1, "", "error: sum-swap is polymorphic; this run built no instance of it\n")


def test_json_output_round_trips():
    cfg = RunConfig(path("connect.skn"), "min-tropical", fmt="json")
    status, out, _ = run_capture(cfg)
    assert status == 0
    data = json.loads(out)
    connect = next(r for r in data if r["relation"] == "connect")
    assert connect["params"][0] == {
        "name": "x", "type": "(Sum Unit (Sum Unit (Sum Unit Unit)))"}
    assert connect["entries"][0] == {
        "values": ["(left sole)", "(left sole)"], "weight": 2.0}
    assert connect["entries"][3]["weight"] == "inf"
    # every value string re-parses to the value at that grid position
    from skn.syntax import Sum, UNIT
    four = Sum(UNIT, Sum(UNIT, Sum(UNIT, UNIT)))
    values = [render_value(v) for v in oracle.type_values(four)]
    for k, entry in enumerate(connect["entries"]):
        assert entry["values"] == [values[k // 4], values[k % 4]]


def _strict_json(text):
    """`text` read as JSON, refusing the non-standard NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_writes_non_finite_weights_as_text(tmp_path):
    low = tmp_path / "low.skn"
    low.write_text("(defrel (low (x : Unit)) (conj (factor -1e308) (factor 10)))\n")
    status, out, _ = run_capture(RunConfig(str(low), "real", fmt="json"))
    assert status == 0
    assert _strict_json(out)[0]["entries"][0]["weight"] == "-inf"
    # connect under real overflows to nan before the run gives up
    status, out, _ = run_capture(RunConfig(path("connect.skn"), "real", fmt="json"))
    assert status == 3
    weights = [e["weight"] for r in _strict_json(out) for e in r["entries"]]
    assert weights.count("nan") == 14
    assert all(isinstance(w, float) for w in weights if w != "nan")


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_rows_follow_value_enumeration(tmp_path, fmt):
    # each table's rows are the product of its parameters' values, listed
    # by the oracle's own enumeration
    zero_ary = tmp_path / "yes.skn"
    zero_ary.write_text("(defrel (yes) (factor true))\n")
    sources = [(path(name), "real" if name == "coins.skn" else "boolean")
               for name in CORPUS] + [(str(zero_ary), "boolean")]
    seen = set()
    for src, sr in sources:
        status, out, _ = run_capture(RunConfig(src, sr, fmt=fmt))
        assert status == 0
        if fmt == "json":
            emitted = {r["relation"]: [tuple(e["values"]) for e in r["entries"]]
                       for r in json.loads(out)}
        else:
            blocks = [b.splitlines() for b in out.split("\n\n")]
            emitted = {lines[0][2:]: [tuple(row.split("\t")[:-1]) for row in lines[2:]]
                       for lines in blocks}
        lowered = lower_program(load_program(Path(src).read_text(), SEMIRINGS[sr]),
                                "monomorphize", SEMIRINGS[sr])
        assert list(emitted) == lowered.names()
        for rel in lowered.relations:
            axes = [[render_value(v) for v in oracle.type_values(ty)]
                    for _, ty in rel.params]
            assert emitted[rel.name] == list(itertools.product(*axes)), rel.name
        seen.update(emitted)
    assert {"yes", "equal-pairs", "connect", "fair-coin-flip"} <= seen


def _diff_with_flipped_connect_cells(monkeypatch, *flips):
    """`--diff` on connect.skn after flipping these cells of large-enough's
    connect table, which is solved second."""
    original = cli.fixpoint
    solved = []

    def fixpoint(program, *args, **kwargs):
        result = original(program, *args, **kwargs)
        solved.append(program)
        if len(solved) == 2:
            cells = result.tables["connect"].cells
            for cell in flips:
                cells[cell] = not cells[cell]
        return result

    monkeypatch.setattr(cli, "fixpoint", fixpoint)
    status, out, _ = run_capture(RunConfig(path("connect.skn"), "boolean", diff=True))
    assert len(solved) == 2
    return status, out


def test_diff_reports_first_divergent_cell(monkeypatch):
    status, out = _diff_with_flipped_connect_cells(monkeypatch, (3, 0))
    assert status == 4
    assert out == ("divergence in connect at ((right (right (right sole))), (left sole)): "
                   "monomorphize=false large-enough=true\n")


def test_diff_writes_only_the_divergent_labels(monkeypatch):
    # each label is read from its index; no parameter type's list of every
    # label is built, which for 4096 values is megabytes of text
    monkeypatch.setattr(cli, "type_labels", lambda t: pytest.fail("listed every label"))
    status, out = _diff_with_flipped_connect_cells(monkeypatch, (3, 0))
    assert status == 4
    assert out.startswith("divergence in connect at ((right (right (right sole))), (left sole)): ")


def test_diff_reports_the_first_of_two_divergent_cells_in_table_order(monkeypatch):
    status, out = _diff_with_flipped_connect_cells(monkeypatch, (3, 0), (1, 2))
    assert status == 4
    assert out == ("divergence in connect at ((right (left sole)), (right (right (left sole)))): "
                   "monomorphize=true large-enough=false\n")


def test_run_is_deterministic():
    cfg = RunConfig(path("sum-swap.skn"), "boolean", poly_mode="large-enough")
    first = run_capture(cfg)
    second = run_capture(cfg)
    assert first == second


@pytest.mark.parametrize("mode", ["monomorphize", "large-enough"])
@pytest.mark.parametrize("name", IDEMPOTENT_CORPUS)
def test_emit_lowered_reruns_identically(tmp_path, name, mode):
    lowered_path = str(tmp_path / "lowered.skn")
    cfg = RunConfig(path(name), "boolean", poly_mode=mode, emit_lowered=lowered_path)
    status, out, _ = run_capture(cfg)
    assert status == 0
    again = RunConfig(lowered_path, "boolean")
    status2, out2, _ = run_capture(again)
    assert status2 == 0 and out2 == out


def test_diff_corpus_identical():
    for name in ("connect.skn", "sum-swap.skn", "two-valued.skn"):
        for sr in ("boolean", "min-tropical"):
            cfg = RunConfig(path(name), sr, diff=True)
            out = io.StringIO()
            assert diff_modes(cfg, load(name), __import__("skn").SEMIRINGS[sr],
                              out=out) == 0
            assert out.getvalue().strip() == "identical"


def test_diff_parses_and_checks_once(monkeypatch):
    parsed = []
    original = cli.syntax.parse_program
    monkeypatch.setattr(cli.syntax, "parse_program",
                        lambda text: parsed.append(text) or original(text))
    status, out, _ = run_capture(RunConfig(path("sum-swap.skn"), "boolean", diff=True))
    assert (status, out) == (0, "identical\n")
    assert len(parsed) == 1


def test_diff_reports_non_convergence():
    cfg = RunConfig(path("connect.skn"), "boolean", diff=True, max_iters=1)
    status, out, _ = run_capture(cfg)
    assert status == 3
    assert "identical" not in out and "did not converge" in out


def test_diff_lowers_both_modes_before_solving(monkeypatch, capsys):
    # large-enough refuses real, so --diff must fail before any fixpoint
    evaluated = []
    original = skn_eval.eval_relation
    monkeypatch.setattr(skn_eval, "eval_relation",
                        lambda rel, *a: evaluated.append(rel.name) or original(rel, *a))
    status = main(["run", path("coins.skn"), "--semiring", "real", "--diff"])
    assert status == 2 and evaluated == []
    assert "idempotent" in capsys.readouterr().err


@pytest.mark.parametrize("name, status", [
    ("sum-swap.skn", 0), ("option-map.skn", 0), ("two-valued.skn", 0),
    ("connect.skn", 3),
])
def test_max_iters_bounds_rounds_per_recursive_component(name, status):
    # relations without recursion need one round; connect is recursive
    assert run_capture(RunConfig(path(name), "boolean", max_iters=1))[0] == status


def test_solved_real_group_counts_as_one_round():
    assert run_capture(RunConfig(path("coins.skn"), "real", max_iters=1))[0] == 0


@pytest.mark.parametrize("body, semiring, last", [
    # loop = 1 + loop: A = [1], so there is no finite fixed point to solve for
    ("(disj (factor 1) (loop x))", "real", "50.0"),
    # a cycle of negative weight: every round finds a shorter walk
    ("(disj (factor 0) (conj (factor -1) (loop x)))", "min-tropical", "-49.0"),
])
def test_group_without_least_fixed_point_runs_out_of_rounds(tmp_path, body, semiring, last):
    src = tmp_path / "loop.skn"
    src.write_text(f"(defrel (loop (x : Unit)) {body})\n")
    status, out, err = run_capture(RunConfig(str(src), semiring, max_iters=50))
    assert status == 3 and "did not converge within 50" in err
    assert f"sole\t{last}\n" in out


@pytest.mark.parametrize("flag", [["--emit-lowered", "LOWERED"], ["--rel", "connect"],
                                  ["--format", "json"], ["--poly-mode", "large-enough"]])
def test_diff_rejects_flags_it_would_ignore(tmp_path, capsys, flag):
    lowered = tmp_path / "lowered.skn"
    argv = ["run", path("connect.skn"), "--semiring", "boolean", "--diff"]
    status = main(argv + [str(lowered) if a == "LOWERED" else a for a in flag])
    captured = capsys.readouterr()
    assert status == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag[0] in captured.err
    assert not lowered.exists()


def test_real_overflow_stops_at_first_nan_round():
    # connect counts paths around a cycle, so real weights overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, out, err = run_capture(RunConfig(path("connect.skn"), "real"))
    assert status == 3 and "# connect" in out
    stopped = re.search(r"stopped at round (\d+), which yielded nan", err)
    assert stopped and int(stopped.group(1)) < 100
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_nan_at_last_allowed_round_is_named():
    # connect under real first yields nan at round 13
    status, _, err = run_capture(RunConfig(path("connect.skn"), "real", max_iters=13))
    assert status == 3
    assert err == ("warning: fixpoint stopped at round 13, which yielded nan; "
                   "tables are from the last round\n")


def test_min_plus_join_overflows_quietly(tmp_path, capsys):
    # edges of weight 1e308 in place of 9 make dist's min-plus join overflow
    # to inf, while the rest make dist dense; the join runs under the
    # errstate of fixpoint, which ignores overflow
    program = tmp_path / "far.skn"
    program.write_text(paths_source(0, 128).replace("(factor 9)", "(factor 1e308)"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["run", str(program), "--semiring", "min-tropical", "--rel", "dist"])
    captured = capsys.readouterr()
    assert status == 0 and captured.err == ""
    assert "\tinf\n" in captured.out and "\t1e+308\n" in captured.out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("diff", [False, True])
def test_memory_error_exit_code(monkeypatch, diff):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "fixpoint", exhausted)
    status, out, err = run_capture(RunConfig(path("connect.skn"), "boolean", diff=diff))
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _bits(n):
    """The text of a type with 2**n values: n two-valued sums in a product."""
    t = "(Sum Unit Unit)"
    for _ in range(n - 1):
        t = f"(Prod (Sum Unit Unit) {t})"
    return t


@pytest.mark.parametrize("source", [
    # numpy raised "Maximum allowed dimension exceeded" for the table
    f"(defrel (r (x : {_bits(70)})) (== x x))",
    # and "array is too big" for two axes of 2**40
    f"(defrel (r (x : {_bits(40)}) (y : {_bits(40)})) (== x y))",
    # a small table: a binder's axis, an index past int64
    f"(defrel (r (x : Unit)) (fresh ((y : {_bits(70)})) (== y y)))",
    f"(defrel (r (x : Unit) (y : Unit)) (== (right {{(Sum {_bits(70)} Unit)}} x) "
    f"(right {{(Sum {_bits(70)} Unit)}} y)))",
], ids=["one-axis", "two-axes", "used-binder", "sum-offset"])
@pytest.mark.parametrize("diff", [False, True])
def test_arrays_too_big_to_shape_exit_code(tmp_path, source, diff):
    src = tmp_path / "big.skn"
    src.write_text(source)
    status, out, err = run_capture(RunConfig(str(src), "boolean", diff=diff))
    assert (status, out) == (1, "")
    assert err == "error: the run needs more memory than is available\n"


@pytest.mark.parametrize("semiring, weight", [
    ("boolean", "true"), ("min-tropical", "0.0"), ("real", repr(float(2 ** 70))),
])
def test_unused_binder_sums_its_type_without_an_array(tmp_path, semiring, weight):
    # a binder no subgoal mentions multiplies in |T| ones summed: one, or |T| under real
    src = tmp_path / "unused.skn"
    src.write_text(f"(defrel (r (x : Unit)) (fresh ((y : {_bits(70)})) (== x x)))")
    status, out, err = run_capture(RunConfig(str(src), semiring))
    assert (status, err) == (0, "")
    assert out.splitlines()[2:] == [f"sole\t{weight}"]


def test_deep_nesting_exit_code(tmp_path):
    # the reader nests one frame per level of chain-1000's 999-deep sum type
    src = tmp_path / "chain-1000.skn"
    src.write_text(chain_source(1000))
    status, out, err = run_capture(RunConfig(str(src), "boolean"))
    assert status == 1 and out == ""
    assert err.startswith("error: program nests too deeply") and err.count("\n") == 1


def test_chain_500_runs_and_writes_lowered_text(tmp_path):
    # checking and lowering walk goals without a frame per nesting level
    src, lowered = tmp_path / "chain-500.skn", tmp_path / "lowered.skn"
    src.write_text(chain_source(500))
    status, out, err = run_capture(RunConfig(str(src), "boolean", relations=["from0"],
                                             emit_lowered=str(lowered)))
    assert status == 0 and not err
    assert out.count("\ttrue") == 499
    assert lowered.stat().st_size > 0


def test_chain_500_lowered_text_runs_back(tmp_path):
    # conj and disj chains print flat, so the lowered text of chain-500's
    # 499-fact `graph` nests no deeper than its source and runs back to the
    # original run's rows
    src, lowered = tmp_path / "chain-500.skn", tmp_path / "lowered.skn"
    src.write_text(chain_source(500))
    first = run_capture(RunConfig(str(src), "boolean", relations=["from0"],
                                  emit_lowered=str(lowered)))
    again = run_capture(RunConfig(str(lowered), "boolean", relations=["from0"]))
    assert first[0] == 0 and again == first


def test_deep_type_equality_within_recursion_limit(tmp_path):
    # checking chain-400 compares 399-deep sum types
    src = tmp_path / "chain-400.skn"
    src.write_text(chain_source(400))
    status, out, err = run_capture(RunConfig(str(src), "boolean", relations=["from0"]))
    assert status == 0 and not err
    assert out.count("\ttrue") == 399


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_emits_a_1500_value_sum_within_recursion_limit(fmt):
    # Labels are written by one iterative fold over the type, so a
    # right-nested sum deeper than the recursion limit emits; its value k
    # is k rights around a left, and its last value k rights around sole.
    n = 1500
    assert sys.getrecursionlimit() < n
    spec = SEMIRINGS["boolean"]
    table = RelTable("deep", (("x", canonical_type(n)),), np.ones(n, dtype=spec.dtype))
    text = cli.emit_tables([table], fmt, spec)
    if fmt == "json":
        labels = [e["values"][0] for e in json.loads(text)[0]["entries"]]
    else:
        labels = [row.split("\t")[0] for row in text.splitlines()[2:]]
    last = n - 1
    assert labels == ["(right " * k + "(left sole)" + ")" * k for k in range(last)] + \
        ["(right " * last + "sole" + ")" * last]


@pytest.mark.parametrize("diff", [False, True])
def test_undecodable_source_exit_code(tmp_path, diff):
    src = tmp_path / "latin1.skn"
    src.write_bytes(b"(defrel (r (x : Unit)) (== x \xff))\n")
    status, out, err = run_capture(RunConfig(str(src), "boolean", diff=diff))
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_diff_real_gated():
    cfg = RunConfig(path("equal.skn"), "real", diff=True)
    status, _, err = run_capture(cfg)
    assert status == 2 and "idempotent" in err


def test_main_arg_parsing(tmp_path, capsys):
    status = main(["run", path("coin-flip.skn"), "--semiring", "boolean"])
    assert status == 0
    captured = capsys.readouterr()
    assert "# coin-flip" in captured.out


def test_main_requires_semiring(monkeypatch, capsys):
    monkeypatch.delenv("SKN_SEMIRING", raising=False)
    status = main(["run", path("coin-flip.skn")])
    assert status == 1
    assert "semiring" in capsys.readouterr().err


def test_unknown_semiring_from_environment(monkeypatch, capsys):
    # argparse checks --semiring against its choices, but not its default
    monkeypatch.setenv("SKN_SEMIRING", "bogus")
    status = main(["run", path("coins.skn")])
    captured = capsys.readouterr()
    assert status == 1 and captured.out == ""
    assert captured.err == ("error: unknown semiring 'bogus'; "
                            "expected one of boolean, min-tropical, real\n")


def test_unknown_semiring_rejected_by_config():
    with pytest.raises(ValueError, match="unknown semiring 'bogus'"):
        RunConfig(path("coins.skn"), "bogus")


@pytest.mark.parametrize("field, value, message", [
    ("poly_mode", "bogus", "unknown poly mode 'bogus'; expected one of monomorphize, large-enough"),
    ("fmt", "xml", "unknown format 'xml'; expected one of tsv, json"),
], ids=["poly_mode", "fmt"])
def test_unknown_poly_mode_or_format_rejected_by_config(field, value, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(path("coins.skn"), "boolean", **{field: value})


@pytest.mark.parametrize("argv, message", [
    (["--semiring", "bogus"], "argument --semiring: invalid choice: 'bogus'"),
    (["--semiring", "boolean", "--bogus"], "unrecognized arguments: --bogus"),
    (["--semiring", "boolean", "--max-iters", "x"], "argument --max-iters: invalid int value"),
], ids=["semiring", "flag", "max_iters"])
def test_usage_errors_exit_1(argv, message, capsys):
    # exit 2 is left to lowering errors
    with pytest.raises(SystemExit) as exit_:
        main(["run", path("coin-flip.skn"), *argv])
    captured = capsys.readouterr()
    assert exit_.value.code == 1 and captured.out == ""
    assert captured.err.startswith("usage: skn") and message in captured.err


def test_semiring_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("SKN_SEMIRING", "boolean")
    status = main(["run", path("coin-flip.skn")])
    assert status == 0
    assert "coin-flip" in capsys.readouterr().out


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_rejected(epsilon, capsys):
    # a nan tolerance fails every check, and an infinite one passes every
    # round, so neither can say what `converged` means
    status = main(["run", path("coins.skn"), "--semiring", "real", "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert status == 1 and captured.out == ""
    assert captured.err == f"error: epsilon must be finite and non-negative, not {epsilon}\n"


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig("x.skn", "boolean", epsilon=-1.0)
    with pytest.raises(ValueError):
        RunConfig("x.skn", "boolean", max_iters=0)
