import collections
import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from skn import (
    SEMIRINGS, Conj, Disj, Factor, Facts, Fresh, Left, Pair, ParseError, Prod, Right,
    SOLE, Sum, TyVar, TypeCheckError, TypeEnv, UNIT, Unify, Unit, Var, apply_subst,
    canonical_type, check_program, check_type_valid, free_type_vars,
    lower_program, parse_program, render_program, render_type, render_value,
    type_labels, type_size,
)
from skn.poly import MAX_TYVAR_SIZE
from skn import syntax
from skn.syntax import (
    _NameSupply, along, fold, free_vars, map_value, render_relation, render_value_expr,
)

import gen
import oracle
from helpers import CORPUS, chain_source, load, paths_source


def test_coin_flip_shape():
    p = parse_program(load("coin-flip.skn"))
    assert p.names() == ["coin-flip"]
    rel = p.relations[0]
    assert rel.tyvars == ()
    assert rel.params == (("coin", Sum(UNIT, UNIT)),)
    assert isinstance(rel.body, Facts)
    assert rel.body.disj == Disj(
        Unify(Var("coin"), Left(SOLE)),
        Unify(Var("coin"), Right(SOLE)),
    )
    assert [({x: v for x, (v, _) in pins.items()}, lit) for pins, lit in rel.body.rows] == \
        [({"coin": Left(SOLE)}, None), ({"coin": Right(SOLE)}, None)]


def test_empty_program():
    assert parse_program("").relations == ()


def test_comments_and_whitespace():
    p = parse_program("; nothing here\n   ; still nothing\n")
    assert p.relations == ()


def test_conj_arity_error():
    with pytest.raises(ParseError):
        parse_program("(defrel (r (x : Unit)) (conj))")
    with pytest.raises(ParseError):
        parse_program("(defrel (r (x : Unit)) (conj (== x x)))")


def test_nary_conj_right_nests():
    p = parse_program("(defrel (r (x : Unit)) (conj (== x x) (== x x) (== x x)))")
    body = p.relations[0].body
    assert isinstance(body, Conj) and isinstance(body.g2, Conj)


def test_multi_binder_fresh_is_one_node():
    p = parse_program(
        "(defrel (r (x : Unit)) (fresh ((y : Unit) (z : Unit)) (== y z)))")
    body = p.relations[0].body
    assert body == Fresh((("y", UNIT), ("z", UNIT)), Unify(Var("y"), Var("z")))
    # a fresh written inside another stays a node of its own
    p = parse_program(
        "(defrel (r (x : Unit)) (fresh ((y : Unit)) (fresh ((z : Unit)) (== y z))))")
    assert p.relations[0].body == \
        Fresh((("y", UNIT),), Fresh((("z", UNIT),), Unify(Var("y"), Var("z"))))


def test_wrapped_param_list():
    flat = parse_program("(defrel (r (x : Unit) (y : Unit)) (== x y))")
    wrapped = parse_program("(defrel (r ((x : Unit) (y : Unit))) (== x y))")
    assert flat == wrapped


def test_forall_and_inferred_tyvars():
    explicit = parse_program("(defrel (r (forall a b) (x : (Sum a b))) (== x x))")
    inferred = parse_program("(defrel (r (x : (Sum a b))) (== x x))")
    assert explicit.relations[0].tyvars == ("a", "b")
    assert explicit == inferred


def test_pair_type_head_is_prod_alias():
    a = parse_program("(defrel (r (x : (Pair Unit Unit))) (== x x))")
    b = parse_program("(defrel (r (x : (Prod Unit Unit))) (== x x))")
    assert a == b


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_program("(defrel (r (x : Unit) (x : Unit)) (== x x))")
    with pytest.raises(ParseError):
        parse_program("(defrel (r (x : Unit)) (== x x))\n"
                      "(defrel (r (y : Unit)) (== y y))")


def test_annotation_braces():
    p = parse_program("(defrel (r (x : (Sum Unit Unit)))"
                      " (== x (left {(Sum Unit Unit)} sole)))")
    body = p.relations[0].body
    assert body.v2 == Left(SOLE, Sum(UNIT, UNIT))


def test_factor_keeps_raw_literal():
    p = parse_program("(defrel (r (x : Unit)) (factor 0.75))")
    assert p.relations[0].body == Factor("0.75")


def test_shadowed_fresh_binder_renamed():
    p = parse_program(
        "(defrel (r (x : Unit))"
        " (fresh ((x : Unit)) (fresh ((x : Unit)) (== x x))))")
    body = p.relations[0].body
    [(outer, _)], [(inner, _)] = body.binders, body.body.binders
    assert outer != "x"
    assert inner not in ("x", outer)
    assert body.body.body.v1 == Var(inner)

    # A binder that repeats an earlier one of the same list is renamed too.
    p = parse_program(
        "(defrel (r (x : Unit)) (fresh ((x : Unit) (x : Unit)) (== x x)))")
    body = p.relations[0].body
    (first, _), (second, _) = body.binders
    assert len({"x", first, second}) == 3
    assert body.body == Unify(Var(second), Var(second))

    # The generated name avoids a name the body spells only after the binder.
    p = parse_program(
        "(defrel (r (x : Unit))"
        " (fresh ((x : Unit)) (fresh ((x~1 : Unit)) (== x x~1))))")
    body = p.relations[0].body
    [(outer, _)] = body.binders
    assert outer not in ("x", "x~1")
    assert body.body.body == Unify(Var(outer), Var("x~1"))

    # Each relation numbers its own renames, so the text of one relation
    # does not depend on the relations before it.
    r = "(defrel (r (x : Unit)) (fresh ((x : Unit)) (== x sole)))\n"
    s = "(defrel (s (x : Unit)) (fresh ((x : Unit)) (conj (== x sole) (r x))))\n"
    rs, sr = parse_program(r + s), parse_program(s + r)
    assert [rel.body.binders[0][0] for rel in rs.relations] == ["x~1", "x~1"]
    assert {render_relation(rel) for rel in rs.relations} == \
        {render_relation(rel) for rel in sr.relations}



def test_name_supply_reads_used_names_without_copying():
    used = {"a", "a~1"}
    supply = _NameSupply(used)
    names = [supply.fresh("a") for _ in range(3)] + [supply.relation_name("a") for _ in range(2)]
    assert names == ["a~2", "a~3", "a~4", "a#1", "a#2"]
    assert supply.used is used and used == {"a", "a~1"}


def test_reader_shares_one_token_set_across_relations(monkeypatch):
    # each relation's supply reads the file's token set, which no rename
    # adds to: a relation costs no copy of the file's tokens
    supplies = []

    class Recorded(syntax._NameSupply):
        def __init__(self, used):
            super().__init__(used)
            supplies.append(self)

    monkeypatch.setattr(syntax, "_NameSupply", Recorded)
    p = parse_program("".join(f"(defrel (r{i} (x : Unit) (x~1 : Unit))"
                              f" (fresh ((x : Unit)) (== x x~1)))\n" for i in range(3)))
    assert [rel.body.binders[0][0] for rel in p.relations] == ["x~2"] * 3
    assert len(supplies) == 3 and all(s.used is supplies[0].used for s in supplies)
    assert "x~1" in supplies[0].used and "x~2" not in supplies[0].used


@pytest.mark.parametrize("form", ["(pair x (left x))", "(pair x (left {(Sum Unit Unit)} x))"])
def test_repeated_value_form_reads_each_renaming(form):
    # one form before a fresh that shadows x, inside it and after it: the
    # inner copy reads the renamed binder, the outer two the parameter
    p = parse_program(f"(defrel (r (x : Unit) (y : Unit))"
                      f" (conj (== y {form}) (fresh ((x : Unit)) (== y {form})) (== y {form})))")
    body = p.relations[0].body
    before, inner, after = body.g1, body.g2.g1, body.g2.g2
    assert [free_vars(g.v2) for g in (before, inner.body, after)] == [["x"], ["x~1"], ["x"]]
    assert before.v2 == after.v2 and before.v2.second.annot == inner.body.v2.second.annot


def _forms(text):
    """The token tuple of each bracketed form of `text`, by a bracket
    match of its own."""
    toks, opens, forms = [tok for tok in syntax._TOKEN.findall(text) if tok], [], []
    for i, tok in enumerate(toks):
        if tok == "(":
            opens.append(i)
        elif tok == ")":
            start = opens.pop()
            forms.append(tuple(toks[start:i + 1]))
    return forms


def test_each_repeated_value_form_is_one_node():
    # chain-64 writes each node's value once or twice per edge; the
    # reader builds one node per distinct form, and one per parse
    text = chain_source(64)
    program = parse_program(text)
    nodes = {}
    for rel in program.relations:
        for g in syntax.subgoals(rel.body):
            if isinstance(g, Facts):  # graph's edges, whose values are its pins'
                values = [v for pins, _ in g.rows for v, _ in pins.values()]
            else:
                values = (g.v1, g.v2) if isinstance(g, Unify) else getattr(g, "args", ())
            for v in values:
                fold(v, lambda u: None,
                     lambda u, *_: isinstance(u, (Left, Right)) and nodes.setdefault(id(u), u))
    forms = [f for f in _forms(text) if f[1] in ("left", "right")]
    assert len(forms) > 2 * len(set(forms))  # the text repeats its forms
    assert len(nodes) == len(set(forms))
    again = parse_program(text).relations[0].body.disj.g1.g1.v2
    assert again == program.relations[0].body.disj.g1.g1.v2
    assert again is not program.relations[0].body.disj.g1.g1.v2


def _outcome(text):
    """The program `text` reads as, rendered, or its error's message and place."""
    try:
        return render_program(parse_program(text))
    except ParseError as e:
        return e.msg, e.line, e.col


def _mutants(text, rng, n=8):
    """`n` copies of `text`, each with one token deleted, doubled, swapped
    with the next one or replaced by another token of the file."""
    spans = [m.span(1) for m in syntax._TOKEN.finditer(text) if m[1]]
    out = []
    for _ in range(n):
        i = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[i], spans[i + 1]
        tok, other = text[a:b], text[slice(*rng.choice(spans))]
        edit = rng.choice(["", f"{tok} {tok}", other, None])  # None: swap with the next
        if edit is None:
            out.append(text[:a] + text[c:d] + text[b:c] + tok + text[d:])
        else:
            out.append(text[:a] + edit + text[b:])
    return out


def test_memo_changes_no_outcome(monkeypatch):
    # every source and mutant reads to the same text, or fails with the same
    # message at the same place, as with the memo off (no bracket matched)
    rng = random.Random(27)
    sources = [load(name) for name in CORPUS] + [chain_source(12)]
    sources += [gen.random_program(seed) for seed in range(100)]
    sources += [m for s in list(sources) for m in _mutants(s, rng)]
    memoized = [_outcome(s) for s in sources]
    monkeypatch.setattr(syntax._Reader, "match", lambda self, off: None)
    assert [_outcome(s) for s in sources] == memoized
    errors = sum(isinstance(o, tuple) for o in memoized)
    assert 0.3 * len(sources) < errors < 0.9 * len(sources)


# Characters that separate tokens, end them, or are whitespace to Python
# but not to the reader (VT, FF, U+0085, U+00A0, U+2003).
_TEXT_PARTS = [*"(){}:; \n\r\t\x0b\x0c\x85\xa0\u2003", "a", "b", "sole"]


@given(st.lists(st.sampled_from(_TEXT_PARTS), max_size=40).map("".join))
@settings(max_examples=500, deadline=None)
def test_reader_tokens_are_the_token_regex(text):
    assert syntax._Reader(text).toks == (*filter(None, syntax._TOKEN.findall(text)), "")


def test_token_set_is_built_at_the_first_rename():
    reader = syntax._Reader("(defrel (r (x : Unit)) (fresh ((y : Unit)) (== x y)))")
    reader.defrel()
    assert "atoms" not in vars(reader) and reader.supply is None
    reader = syntax._Reader("(defrel (r (x : Unit)) (fresh ((x : Unit)) (== x x)))")
    reader.defrel()
    assert reader.atoms == set(reader.toks) and reader.supply.used is reader.atoms


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as e:
        parse_program("(defrel (r (x : Unit))\n  (== x (badctor y)))")
    assert e.value.line == 2


_R = "(defrel (r (x : Unit)) "


@pytest.mark.parametrize("source, msg, line, col", [
    pytest.param(_R + "\n  (== x (left sole", "missing ')'", 2, 9, id="end-of-input"),
    pytest.param(_R + "(== x sole)))", "unexpected ')'", 1, 36, id="stray-close"),
    pytest.param(_R + "(== x sole})", "unexpected '}'", 1, 34, id="mismatched-brace"),
    pytest.param(_R + "(== x sole) (== x sole))",
                 "expected (defrel (name params...) goal)", 1, 1, id="three-item-defrel"),
    pytest.param("(define (r (x : Unit)) (== x sole))",
                 "expected defrel, got 'define'", 1, 1, id="define"),
    pytest.param(_R + "(factor))", "factor takes one weight literal", 1, 24, id="factor"),
    pytest.param("(defrel (r (x : (Sum Unit Unit))) (== x (left {} sole)))",
                 "annotation braces hold exactly one type", 1, 41, id="empty-annotation"),
    pytest.param(_R + "(fresh () (== x sole)))",
                 "fresh needs a non-empty binder list", 1, 24, id="fresh-no-binders"),
    pytest.param(_R + "(conj (== x sole)))",
                 "conj takes at least two subgoals", 1, 24, id="one-goal-conj"),
    pytest.param(_R + "\n  (== x (badctor sole)))",
                 "unknown value constructor 'badctor'", 2, 9, id="value-constructor"),
    pytest.param("(defrel (r (x : (Arrow Unit Unit))) (== x x))",
                 "unknown type constructor 'Arrow'", 1, 17, id="type-constructor"),
    pytest.param("(defrel (r (x Unit)) (== x sole))",
                 "expected (name : type)", 1, 12, id="param-without-colon"),
    pytest.param("(defrel (r (sole : Unit)) (== sole sole))",
                 "'sole' is reserved and cannot name a variable", 1, 13, id="reserved-param"),
    pytest.param("(defrel (r (forall a a) (x : a)) (== x x))",
                 "duplicate type variable in forall", 1, 9, id="duplicate-forall"),
    pytest.param("(defrel (r (x : (Prod Unit Unit))) (== x (pair sole)))",
                 "pair takes two values", 1, 42, id="one-value-pair"),
    pytest.param(_R + "(== x x x))", "== takes two values", 1, 24, id="three-value-unify"),
    pytest.param(_R + "(sole x))", "misplaced 'sole'", 1, 24, id="sole-goal"),
    pytest.param(_R + "{== x x})", "expected a goal", 1, 24, id="braced-goal"),
    pytest.param(_R + "(== x sole)\n(defrel (s (y : Unit)) (== y sole))",
                 "missing ')'", 1, 1, id="unclosed-defrel"),
    # one input per message, or per site of a message, that no other test reaches
    pytest.param("(defrel (r (x : ())) (== x x))", "empty type form", 1, 17, id="empty-type"),
    pytest.param(_R + "(== x ()))", "empty value form", 1, 30, id="empty-value"),
    pytest.param(_R + "(== x (( sole))))",
                 "expected a value constructor", 1, 31, id="head-not-a-word"),
    pytest.param("(defrel (r (x : ((Sum Unit Unit)))) (== x x))",
                 "expected a type constructor", 1, 18, id="type-head-not-a-word"),
    pytest.param(_R + "((== x x)))", "expected a goal form", 1, 25, id="goal-head-not-a-word"),
    pytest.param(_R + "(== x :))", "expected variable", 1, 30, id="colon-value"),
    pytest.param("(defrel (: (x : Unit)) (== x x))",
                 "expected relation", 1, 10, id="colon-relation-name"),
    pytest.param("(defrel (r (x : (Sum Unit))) (== x x))",
                 "Sum takes two types", 1, 17, id="one-type-sum"),
    pytest.param("(defrel (r (x : {Unit})) (== x x))",
                 "unexpected annotation braces in type", 1, 17, id="braced-type"),
    pytest.param("(defrel (r (x : sole)) (== x x))",
                 "expected a type, got 'sole'", 1, 17, id="reserved-type"),
    pytest.param(_R + "(== x {Unit}))",
                 "annotation braces are only valid after left/right", 1, 30, id="braced-value"),
    pytest.param("(defrel (r (x : (Sum Unit Unit))) (== x (left sole sole)))",
                 "left takes one value", 1, 41, id="two-value-left"),
    pytest.param(_R + "(fresh))",
                 "fresh takes a binder list and one body goal", 1, 24, id="bare-fresh"),
    pytest.param(_R + "(fresh ((y : Unit))))",
                 "fresh takes a binder list and one body goal", 1, 24, id="fresh-no-body"),
    pytest.param(_R + "(fresh ((y : Unit)) (== y y) (== y y)))",
                 "fresh takes a binder list and one body goal", 1, 24, id="fresh-two-bodies"),
    pytest.param("(defrel (r (x :)) (== x x))",
                 "expected (name : type)", 1, 12, id="param-without-type"),
    pytest.param("(defrel (r (x : Unit Unit)) (== x x))",
                 "expected (name : type)", 1, 12, id="param-with-two-types"),
    pytest.param("(defrel (r ((x : Unit)) (y : Unit)) (== x y))",
                 "expected (name : type)", 1, 12, id="param-after-wrapped-list"),
    pytest.param("x", "expected (defrel (name params...) goal)", 1, 1, id="atom-at-top"),
    pytest.param("()", "expected (defrel (name params...) goal)", 1, 1, id="empty-form-at-top"),
    pytest.param("(defrel)", "expected (defrel (name params...) goal)", 1, 1, id="bare-defrel"),
    pytest.param("(defrel (r (x : Unit)))",
                 "expected (defrel (name params...) goal)", 1, 1, id="defrel-without-body"),
    pytest.param("(defrel r (== x x))",
                 "defrel needs a (name params...) header", 1, 1, id="atom-header"),
    pytest.param("(defrel () (== x x))",
                 "defrel needs a (name params...) header", 1, 1, id="empty-header"),
    # the reader separates tokens by space, tab, CR and LF alone: a CRLF,
    # tab-indented program errs on the line of its LF, space-indented twin,
    # a tab counting one column; a form feed is a token
    pytest.param("(defrel (r (x : Unit))\r\n\t(conj (== x sole)\r\n\t\t(== x (badctor sole))))",
                 "unknown value constructor 'badctor'", 3, 9, id="crlf-tabs"),
    pytest.param("(defrel (r (x : Unit))\n    (conj (== x sole)\n        (== x (badctor sole))))",
                 "unknown value constructor 'badctor'", 3, 15, id="lf-spaces"),
    pytest.param("(defrel (r) (conj (r) \x0c (r)))",
                 "expected a goal, got '\\x0c'", 1, 23, id="form-feed-goal"),
])
def test_single_fault_parse_errors(source, msg, line, col):
    with pytest.raises(ParseError) as e:
        parse_program(source)
    assert (e.value.msg, e.value.line, e.value.col) == (msg, line, col)


def test_render_value_examples():
    assert render_value(SOLE) == "sole"
    assert render_value(Left(SOLE)) == "(left sole)"
    assert render_value(Pair(Left(SOLE), SOLE)) == "(pair (left sole) sole)"
    # annotations are dropped in canonical value output
    assert render_value(Left(SOLE, Sum(UNIT, UNIT))) == "(left sole)"


def test_render_value_rejects_variables():
    with pytest.raises(ValueError) as e:
        render_value(Pair(Var("x"), SOLE))
    assert str(e.value) == "cannot render non-concrete value (pair x sole)"


def test_free_type_vars():
    assert free_type_vars(UNIT) == []
    assert free_type_vars(Sum(TyVar("a"), TyVar("b"))) == ["a", "b"]
    assert free_type_vars(Prod(TyVar("a"), TyVar("a"))) == ["a"]


def test_deep_type_equality_and_hash():
    def nest(depth, leaf):
        t = leaf
        for i in range(depth):
            t = Sum(UNIT, t) if i % 2 else Prod(t, UNIT)
        return t

    a, b = nest(5000, TyVar("a")), nest(5000, TyVar("a"))
    assert a is b and a == b and hash(a) == hash(b)
    assert a != nest(5000, TyVar("b")) and a != nest(4999, TyVar("a"))
    assert Sum(UNIT, UNIT) != Prod(UNIT, UNIT)
    assert Sum(UNIT, UNIT) is Sum(UNIT, UNIT)
    assert TyVar("a") is TyVar("a") and Unit() is UNIT

    # A ground type carries its size, so these return at once however deep.
    t = canonical_type(5000)
    assert type_size(t) == 5000
    assert apply_subst({}, t) is t
    check_type_valid(TypeEnv(), t)
    assert free_type_vars(t) == []


def test_type_repr_is_dataclass_form_at_any_depth():
    assert repr(UNIT) == "Unit()"
    assert repr(TyVar("a")) == "TyVar(name='a')"
    assert repr(Prod(UNIT, Sum(TyVar("b"), UNIT))) == \
        "Prod(first=Unit(), second=Sum(left=TyVar(name='b'), right=Unit()))"
    text = repr(canonical_type(5000))
    assert text.startswith("Sum(left=Unit(), right=Sum(left=Unit(), ")
    assert text.endswith("right=Unit()" + ")" * 4999)
    assert text.count("Unit()") == 5000


def test_render_type_and_labels_at_any_depth():
    text = render_type(canonical_type(5000))
    assert text == "(Sum Unit " * 4999 + "Unit" + ")" * 4999
    # A deep sum has as many values as levels, and labelling it writes
    # quadratically many characters; a deep product has one value.
    chain = UNIT
    for _ in range(5000):
        chain = Prod(UNIT, chain)
    left, right = type_labels(Sum(chain, UNIT))
    assert right == "(right sole)"
    assert left == "(left " + "(pair sole " * 5000 + "sole" + ")" * 5001
    # the same depth in the first component: each pair's second component
    # is written after the first's whole label
    chain = UNIT
    for _ in range(5000):
        chain = Prod(chain, UNIT)
    left, right = type_labels(Sum(UNIT, chain))
    assert left == "(left sole)"
    assert right == "(right " + "(pair " * 5000 + "sole" + " sole)" * 5000 + ")"


def test_labels_of_the_largest_type_variable_size():
    # canonical_type(MAX_TYVAR_SIZE): label k is k rights around (left sole),
    # and the last is the innermost sole; 67 MB of text in all
    n = MAX_TYVAR_SIZE
    labels = type_labels(canonical_type(n))
    assert len(labels) == n
    for k in (0, 1, n // 2, n - 2):
        assert labels[k] == "(right " * k + "(left sole)" + ")" * k
    assert labels[-1] == "(right " * (n - 1) + "sole" + ")" * (n - 1)
    assert sum(map(len, labels)) == sum(11 + 8 * k for k in range(n - 1)) + 4 + 8 * (n - 1)


def _name(u):
    """A leaf's text: its name, or its kind."""
    return u.name if isinstance(u, (TyVar, Var)) else type(u).__name__


@pytest.mark.parametrize("x, kids", [
    (Sum(UNIT, TyVar("a")), ("Unit", "a")),
    (Prod(TyVar("a"), UNIT), ("a", "Unit")),
    (Pair(Var("x"), SOLE), ("x", "Sole")),
    (Left(Var("x")), ("x",)),
    (Right(SOLE, Sum(UNIT, UNIT)), ("Sole",)),
], ids=["Sum", "Prod", "Pair", "Left", "Right"])
def test_fold_passes_each_node_its_childrens_results_in_order(x, kids):
    assert fold(x, _name, lambda u, *got: (u, got)) == (x, kids)


@pytest.mark.parametrize("leaf", [UNIT, TyVar("a"), SOLE, Var("x")], ids=_name)
def test_fold_of_a_leaf_is_its_leaf_call(leaf):
    assert fold(leaf, _name, lambda u, *got: pytest.fail("no node")) == _name(leaf)


def test_fold_visits_leaves_left_to_right_and_nodes_after_their_children():
    for x, want in [
        (Sum(Prod(TyVar("a"), TyVar("b")), Sum(TyVar("c"), UNIT)),
         ["a", "b", "Prod", "c", "Unit", "Sum", "Sum"]),
        (Pair(Left(Var("a")), Pair(Var("b"), Right(SOLE))),
         ["a", "Left", "b", "Sole", "Right", "Pair", "Pair"]),
    ]:
        calls = []
        fold(x, lambda u: calls.append(_name(u)), lambda u, *got: calls.append(type(u).__name__))
        assert calls == want


def test_fold_folds_a_shared_type_node_once_per_occurrence():
    # ten levels of Sum(t, t): 11 distinct interned nodes, 1024 leaves
    t = UNIT
    for _ in range(10):
        t = Sum(t, t)
    calls = collections.Counter()
    fold(t, lambda u: calls.update(["leaf"]), lambda u, *got: calls.update(["node"]))
    assert calls == {"leaf": 1024, "node": 1023}


def test_fold_at_any_depth():
    assert sys.getrecursionlimit() < 5000
    t, v = TyVar("a"), Var("x")
    for i in range(5000):
        t = Sum(UNIT, t) if i % 2 else Prod(t, UNIT)
        v = Left(v) if i % 2 else Pair(SOLE, v)
    for x in (t, v):
        assert fold(x, lambda u: 0, lambda u, *got: 1 + max(got)) == 5000


def test_along_yields_leaves_annotated_constructors_and_misfits_in_pre_order():
    a, s2, s3 = TyVar("a"), Sum(UNIT, UNIT), Sum(UNIT, Sum(UNIT, UNIT))
    misfit = Pair(SOLE, Var("skipped"))
    annotated = Right(SOLE, s2)
    v = Pair(Left(Var("x")), Pair(annotated, Left(misfit)))
    t = Prod(Sum(a, s3), Prod(s2, Sum(UNIT, UNIT)))
    # the pairs and the bare lefts fit their parts and are gone through
    # unyielded; the misfit pair at Unit is yielded once, its children skipped
    got = list(along(v, t))
    assert [(type(u).__name__, part) for u, part in got] == \
        [("Var", a), ("Right", s2), ("Sole", UNIT), ("Pair", UNIT)]
    assert got[1][0] is annotated and got[3][0] is misfit


def test_along_walks_a_type_down_a_type():
    a, b = TyVar("a"), TyVar("b")
    misfit = Prod(a, b)
    pattern = Prod(Sum(a, misfit), Prod(UNIT, b))
    actual = Prod(Sum(UNIT, Sum(UNIT, UNIT)), Prod(UNIT, Prod(UNIT, UNIT)))
    # a Sum or Prod goes in only where the other type has its shape
    assert list(along(pattern, actual)) == [
        (a, UNIT), (misfit, Sum(UNIT, UNIT)), (UNIT, UNIT), (b, Prod(UNIT, UNIT))]
    assert list(along(a, pattern)) == [(a, pattern)]


def test_along_at_any_depth():
    assert sys.getrecursionlimit() < 5000
    t, v = UNIT, SOLE
    for i in range(5000):
        t = Sum(UNIT, t) if i % 2 else Prod(t, UNIT)
        v = Right(v) if i % 2 else Pair(v, Var(f"x{i}"))
    got = list(along(v, t))
    assert len(got) == 2501 and got[0] == (SOLE, UNIT)
    assert [u.name for u, _ in got[1:]] == [f"x{i}" for i in range(0, 5000, 2)]


# Deep values are compared by their text, never by `==`: dataclass
# equality recurses once per level.
def _pair_spine(end, depth=5000):
    """`depth` pairs, each with sole first, around `end`."""
    for _ in range(depth):
        end = Pair(SOLE, end)
    return end


def test_render_value_at_any_depth():
    v = Left(SOLE)
    for _ in range(5000):
        v = Right(v)
    assert render_value(v) == "(right " * 5000 + "(left sole)" + ")" * 5000


def test_render_value_rejects_a_deep_variable():
    # the message writes the value as `render_value_expr` does, without recursion
    with pytest.raises(ValueError) as e:
        render_value(_pair_spine(Var("x")))
    assert str(e.value) == \
        "cannot render non-concrete value " + "(pair sole " * 5000 + "x" + ")" * 5000


def test_free_vars_at_any_depth():
    assert free_vars(_pair_spine(Var("x"))) == ["x"]


def test_map_value_at_any_depth():
    renamed = map_value(_pair_spine(Var("x")), var=lambda u: Var(u.name + "2"))
    assert render_value_expr(renamed) == "(pair sole " * 5000 + "x2" + ")" * 5000


def test_apply_subst_at_any_depth():
    spine, ground = TyVar("a"), UNIT
    for _ in range(5000):
        spine, ground = Prod(UNIT, spine), Prod(UNIT, ground)
    assert apply_subst({"a": UNIT}, spine) is ground


def test_pickle_and_copy_keep_types_interned():
    p = check_program(parse_program(load("sum-swap.skn")))
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p
        assert q.relations[0].params[0][1] is p.relations[0].params[0][1]


def test_corpus_parses_and_round_trips():
    sources = [load(name) for name in CORPUS]
    sources += [gen.random_program(s) for s in range(50)] + [chain_source(6)]
    # lowered output adds generated names such as x~1 and two-valued$1
    sources += [render_program(lower_program(check_program(parse_program(load(name))),
                                             mode, SEMIRINGS["boolean"]))
                for name in CORPUS for mode in ("monomorphize", "large-enough")]
    for source in sources:
        program = parse_program(source)
        assert parse_program(render_program(program)) == program

    # one fresh binds both variables, and is written back as it was read
    source = ("(defrel (r (x : Unit))\n"
              "  (fresh ((y : Unit) (z : (Sum Unit Unit)))\n"
              "    (== y x)))\n")
    program = parse_program(source)
    assert program.relations[0].body.binders == (("y", UNIT), ("z", Sum(UNIT, UNIT)))
    assert render_program(program) == source


# ---------------------------------------------------------------------------
# fact tables: a disjunction of ground facts is read as one leaf goal

# Each is written as `render_program` writes it.
_FACTS = {
    "factor-first": """(defrel (unfair-coin-flip (coin : (Sum Unit Unit)))
  (disj
    (conj
      (factor 0.7)
      (== coin (left sole)))
    (conj
      (factor 0.3)
      (== coin (right sole)))))
""",
    "single-pin": """(defrel (coin-flip (coin : (Sum Unit Unit)))
  (disj
    (== coin (left sole))
    (== coin (right sole))))
""",
    "value-first": """(defrel (r (x : (Sum Unit Unit)) (y : Unit))
  (disj
    (conj
      (== (left sole) x)
      (== sole y))
    (conj
      (== y sole)
      (conj
        (== (right {(Sum Unit Unit)} sole) x)
        (factor 1)))))
""",
    "under-fresh": """(defrel (r (x : (Sum Unit Unit)))
  (fresh ((z : (Sum Unit Unit)))
    (conj
      (disj
        (conj
          (== x (left sole))
          (== z (right sole)))
        (disj
          (conj
            (== z (left sole))
            (== x (left sole)))
          (conj
            (== x (right sole))
            (== z (right sole)))))
      (== z x))))
""",
}
_NEAR_MISSES = {
    "repeated-pin": """(defrel (r (x : (Sum Unit Unit)))
  (disj
    (conj
      (== x (left sole))
      (== x (right sole)))
    (== x (left sole))))
""",
    "variable-value": """(defrel (r (x : (Sum Unit Unit)) (y : (Sum Unit Unit)))
  (disj
    (conj
      (== x (left sole))
      (== y x))
    (conj
      (== x (right sole))
      (== y (left sole)))))
""",
    "two-factors": """(defrel (r (x : (Sum Unit Unit)))
  (disj
    (conj
      (== x (left sole))
      (conj
        (factor 1)
        (factor 1)))
    (== x (right sole))))
""",
    "mixed-pins": """(defrel (r (x : (Sum Unit Unit)) (y : (Sum Unit Unit)))
  (disj
    (disj
      (== x (left sole))
      (== x (right sole)))
    (== y (left sole))))
""",
}

# Each fact table's rows: each pin's variable and value, in source order,
# and the row's literal.
_ROWS = {
    "factor-first": [({"coin": "(left sole)"}, "0.7"), ({"coin": "(right sole)"}, "0.3")],
    "single-pin": [({"coin": "(left sole)"}, None), ({"coin": "(right sole)"}, None)],
    "value-first": [({"x": "(left sole)", "y": "sole"}, None),
                    ({"y": "sole", "x": "(right {(Sum Unit Unit)} sole)"}, "1")],
    "under-fresh": [({"x": "(left sole)", "z": "(right sole)"}, None),
                    ({"z": "(left sole)", "x": "(left sole)"}, None),
                    ({"x": "(right sole)", "z": "(right sole)"}, None)],
}


def _facts_nodes(program):
    return [g for rel in program.relations for g in syntax.subgoals(rel.body)
            if isinstance(g, Facts)]


@pytest.mark.parametrize("name", sorted(_FACTS))
def test_fact_disjunction_is_one_leaf_printed_as_read(name):
    program = parse_program(_FACTS[name])
    assert render_program(program) == _FACTS[name]
    kinds = [type(g) for g in syntax.subgoals(program.relations[0].body)]
    assert kinds.count(Facts) == 1 and Disj not in kinds
    [table] = _facts_nodes(program)
    assert [({x: render_value_expr(v) for x, (v, _) in pins.items()}, lit)
            for pins, lit in table.rows] == _ROWS[name]
    assert all(u.ty is None and v in (u.v1, u.v2) and Var(x) in (u.v1, u.v2)
               for pins, _ in table.rows for x, (v, u) in pins.items())
    # the checker keeps the node as read, and its `==`s untyped
    assert _facts_nodes(check_program(program)) == [table]
    assert _facts_nodes(check_program(program))[0] is table
    assert parse_program(render_program(program)) == program


@pytest.mark.parametrize("name", sorted(_NEAR_MISSES))
def test_near_miss_stays_a_disjunction(name):
    program = parse_program(_NEAR_MISSES[name])
    assert render_program(program) == _NEAR_MISSES[name]
    kinds = {type(g) for g in syntax.subgoals(program.relations[0].body)}
    assert Disj in kinds and Facts not in kinds


def test_nested_fact_disjunctions_are_one_table_kept_as_read():
    program = parse_program(_FACTS["under-fresh"])
    [table] = _facts_nodes(program)
    assert isinstance(table.disj.g2, Disj) and len(table.rows) == 3
    # a failed disjunction takes its inner fact table back as a disj
    body = parse_program(_NEAR_MISSES["mixed-pins"]).relations[0].body
    assert type(body) is Disj and type(body.g1) is Disj


def test_printed_fact_table_is_read_back_once_per_fact(monkeypatch):
    # `render_program` prints edge's 256 facts as 255 nested disjs; each
    # level takes the table read inside it as it is, so each fact's two
    # values are looked at once, not once per enclosing level
    program = parse_program(paths_source(0))
    grounds = []
    original = syntax._ground
    monkeypatch.setattr(syntax, "_ground", lambda v, known: grounds.append(v) or original(v, known))
    again = parse_program(render_program(program))
    assert again == program and len(again.relation("edge").body.rows) == 256
    assert len(grounds) == 512


# (input, text replaced, replacement, the error: a message, or a parse
# error's message, line and column), each the error that reading every
# fact disjunction as a tree of `Disj` nodes and checking each `==` gives
_FACT_ERRORS = [
    ("factor-first", "(left sole))", "sole)",
     "unfair-coin-flip: sole has type Unit, expected (Sum Unit Unit)"),
    ("factor-first", "coin (right", "coins (right", "unfair-coin-flip: unbound variable 'coins'"),
    ("factor-first", "(right sole)", "(rite sole)", ("unknown value constructor 'rite'", 8, 16)),
    ("single-pin", "(left sole))", "sole)", "coin-flip: sole has type Unit, expected (Sum Unit Unit)"),
    ("single-pin", "coin (right", "coins (right", "coin-flip: unbound variable 'coins'"),
    ("single-pin", "(left sole)", "(left sole sole)", ("left takes one value", 3, 14)),
    ("value-first", "(== (left sole) x)", "(== (left {(Sum Unit Unit)} (left sole)) x)",
     "r: left constructor needs a Sum type, got Unit"),
    ("value-first", "(== sole y)", "(== sole)", ("== takes two values", 5, 7)),
    ("under-fresh", "(left sole))", "sole)", "r: sole has type Unit, expected (Sum Unit Unit)"),
    ("under-fresh", "(== z (right sole))", "(== z (right (pair sole sole)))",
     "r: pair value cannot have type Unit"),
    ("under-fresh", "(== z (left sole))", "(== z (left {Unit Unit} sole))",
     ("annotation braces hold exactly one type", 10, 19)),
    ("repeated-pin", "(left sole))", "sole)", "r: sole has type Unit, expected (Sum Unit Unit)"),
    ("variable-value", "(left sole))", "sole)", "r: sole has type Unit, expected (Sum Unit Unit)"),
    ("two-factors", "(left sole))", "sole)", "r: sole has type Unit, expected (Sum Unit Unit)"),
    ("mixed-pins", "(left sole))", "sole)", "r: sole has type Unit, expected (Sum Unit Unit)"),
    ("mixed-pins", "(== y (left sole))", "(== y (left sole)))", ("unexpected ')'", 6, 25)),
]


@pytest.mark.parametrize("name, old, new, error", _FACT_ERRORS)
def test_fact_disjunction_errors_as_the_disj_tree_gave_them(name, old, new, error):
    text = {**_FACTS, **_NEAR_MISSES}[name].replace(old, new, 1)
    if isinstance(error, tuple):
        with pytest.raises(ParseError) as info:
            parse_program(text)
        assert (info.value.msg, info.value.line, info.value.col) == error
    else:
        with pytest.raises(TypeCheckError) as info:
            check_program(parse_program(text))
        assert str(info.value) == error


@st.composite
def concrete_types(draw, max_size=64):
    t = draw(st.recursive(
        st.just(UNIT),
        lambda kids: st.builds(Sum, kids, kids) | st.builds(Prod, kids, kids),
        max_leaves=8,
    ))
    if type_size(t) > max_size:
        t = UNIT
    return t


@given(concrete_types())
@settings(max_examples=200, deadline=None)
def test_value_parse_render_round_trip(t):
    assert type_labels(t) == [render_value(v) for v in oracle.type_values(t)]
    for v in oracle.type_values(t):
        text = render_value(v)
        parsed = parse_program(f"(defrel (r (x : Unit)) (== x {text}))")
        got = parsed.relations[0].body.v2
        assert _strip(got) == _strip(v)


def _strip(v):
    if isinstance(v, Left):
        return Left(_strip(v.inner), None)
    if isinstance(v, Right):
        return Right(_strip(v.inner), None)
    if isinstance(v, Pair):
        return Pair(_strip(v.first), _strip(v.second))
    return v
