"""Seeded benchmark workloads and their references.

Each workload is a list of :class:`Case` objects: one generated program
plus the tables it must produce.  The references are computed here,
without skn: Floyd-Warshall for shortest paths, closed-form reachability
on a path, closed-form tables for the polymorphic shapes, and fair = 1/2
for the coins.  This module imports nothing from skn, so a fault in the
evaluator cannot leak into the answers it is checked against.

Types are plain tuples: ``"Unit"``, ``("Sum", left, right)`` or
``("Prod", first, second)``.  The values of a type are listed in the
language's canonical order (all lefts, then all rights; products
first-component-major), rendered the way emitted tables print them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

UNIT = "Unit"

PATHS_NODES = 128
DEEP_NODES = 64
DISTINCT3_SIZES = (8, 16, 24)
SUM_SWAP_SIZES = (6, 8)
OPTION_MAP_SIZES = (3, 4)
COINS_EPSILON = 1e-9
COINS_SEEDED = 13          # skews drawn per seed, in [COINS_SEEDED_RANGE)
COINS_SEEDED_RANGE = (740, 950)   # per mille
COINS_FIXED_SKEWS = (500, 600, 990)   # per mille; 990 converges slowest


# ---------------------------------------------------------------------------
# types and values, independent of skn

def balanced_sum(n: int):
    """A sum of n Units split evenly at every level (depth ~log2 n)."""
    if n == 1:
        return UNIT
    half = n // 2
    return ("Sum", balanced_sum(half), balanced_sum(n - half))


def right_nested_sum(n: int):
    """(Sum Unit (Sum Unit ... Unit)) with n values (depth n - 1)."""
    t = UNIT
    for _ in range(n - 1):
        t = ("Sum", UNIT, t)
    return t


def seeded_type(rng: random.Random, n: int):
    """A type with n values whose shape is drawn from `rng`: a balanced
    sum, a right-nested sum, or a product of two smaller types."""
    factors = [a for a in range(2, n) if n % a == 0]
    shape = rng.choice(["balanced", "nested", "product"] if factors else
                       ["balanced", "nested"])
    if shape == "balanced":
        return balanced_sum(n)
    if shape == "nested":
        return right_nested_sum(n)
    a = rng.choice(factors)
    return ("Prod", balanced_sum(a), right_nested_sum(n // a))


def type_text(t) -> str:
    if t == UNIT:
        return "Unit"
    return f"({t[0]} {type_text(t[1])} {type_text(t[2])})"


def type_values(t) -> list[str]:
    """Rendered values of `t` in canonical order."""
    if t == UNIT:
        return ["sole"]
    if t[0] == "Prod":
        return prod_values(type_values(t[1]), type_values(t[2]))
    return [f"(left {v})" for v in type_values(t[1])] + \
           [f"(right {v})" for v in type_values(t[2])]


def prod_values(a: list[str], b: list[str]) -> list[str]:
    return [f"(pair {x} {y})" for x in a for y in b]


# ---------------------------------------------------------------------------
# cases

@dataclass
class Expected:
    """Reference table of one relation: rendered values per axis and the
    dense weights in canonical index order."""
    axes: list[list[str]]
    cells: np.ndarray


@dataclass
class Case:
    name: str
    source: str
    semiring: str
    modes: tuple[str, ...] = ("monomorphize",)
    emit: tuple[str, ...] = ()           # relations emitted, in this order
    formats: tuple[str, ...] = ("tsv",)
    expected: dict[str, Expected] = field(default_factory=dict)
    epsilon: float | None = None         # real-semiring tolerance


# ---------------------------------------------------------------------------
# paths: all-pairs shortest paths under min-tropical

def _paths_edges(rng: random.Random, n: int) -> dict[tuple[int, int], int]:
    """A ring plus n random chords; parallel edges keep the lighter weight."""
    edges: dict[tuple[int, int], int] = {}

    def add(a, b, w):
        edges[(a, b)] = min(w, edges.get((a, b), w))

    for i in range(n):
        add(i, (i + 1) % n, rng.randint(1, 9))
    for _ in range(n):
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        add(a, b if b < a else b + 1, rng.randint(1, 9))
    return edges


def floyd_warshall(n: int, edges: dict[tuple[int, int], int]) -> np.ndarray:
    """Shortest path of one or more edges between every ordered pair."""
    d = np.full((n, n), np.inf)
    for (a, b), w in edges.items():
        d[a, b] = min(d[a, b], w)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def paths_case(seed: int, n: int = PATHS_NODES) -> Case:
    rng = random.Random(f"paths:{seed}")
    t = balanced_sum(n)
    tt = type_text(t)
    vals = type_values(t)
    edges = _paths_edges(rng, n)
    disjuncts = "\n".join(
        f"    (conj (== x {vals[a]}) (== y {vals[b]}) (factor {w}))"
        for (a, b), w in sorted(edges.items()))
    source = f"""\
; seeded weighted digraph: a ring plus random chords over {n} nodes
(defrel (edge (x : {tt}) (y : {tt}))
  (disj
{disjuncts}))

(defrel (dist (x : {tt}) (y : {tt}))
  (disj
    (edge x y)
    (fresh ((z : {tt}))
      (conj (dist x z) (dist z y)))))

(defrel (from0 (y : {tt}))
  (dist {vals[0]} y))
"""
    d = floyd_warshall(n, edges)
    return Case(
        name=f"paths-{n}", source=source, semiring="min-tropical",
        emit=("from0",),
        expected={"dist": Expected([vals, vals], d),
                  "from0": Expected([vals], d[0].copy())})


# ---------------------------------------------------------------------------
# deep: chain-N reachability over a right-nested sum, boolean

def deep_case(seed: int, n: int = DEEP_NODES) -> Case:
    """An (n-1)-edge path visiting the nodes in seeded order, and its
    transitive closure.  The order changes the inputs but not the cost."""
    rng = random.Random(f"deep:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    t = right_nested_sum(n)
    tt = type_text(t)
    vals = type_values(t)
    disjuncts = "\n".join(
        f"    (conj (== x {vals[a]}) (== y {vals[b]}))"
        for a, b in zip(order, order[1:]))
    source = f"""\
; chain-{n}: a path over a right-nested sum and its transitive closure
(defrel (graph (x : {tt}) (y : {tt}))
  (disj
{disjuncts}))

(defrel (connect (x : {tt}) (y : {tt}))
  (disj
    (graph x y)
    (fresh ((z : {tt}))
      (conj (connect x z) (connect z y)))))

(defrel (from0 (y : {tt}))
  (connect {vals[0]} y))
"""
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    reach = pos[:, None] < pos[None, :]
    return Case(
        name=f"chain-{n}", source=source, semiring="boolean",
        emit=("from0",), formats=("tsv", "json"),
        expected={"connect": Expected([vals, vals], reach),
                  "from0": Expected([vals], reach[0].copy())})


# ---------------------------------------------------------------------------
# poly: polymorphic shapes called from monomorphic relations, both modes

BOTH_MODES = ("monomorphize", "large-enough")


def distinct_case(k: int, t) -> Case:
    names = "xyzuvw"[:k]
    params = " ".join(f"({x} : a)" for x in names)
    pairs = [(names[i], names[j]) for i in range(k) for j in range(i + 1, k)]
    body = " ".join(f"(=/= {x} {y})" for x, y in pairs)
    body = f"(conj {body})" if len(pairs) > 1 else body
    tt = type_text(t)
    vals = type_values(t)
    size = len(vals)
    caller_params = " ".join(f"({x} : {tt})" for x in names)
    source = f"""\
; pairwise-distinct {k}-tuples of one type variable, called at size {size}
(defrel (distinct{k} {params})
  {body})

(defrel (distinct{k}-at {caller_params})
  (distinct{k} {" ".join(names)}))

(defrel (distinct{k}-row ({names[-1]} : {tt}))
  (distinct{k}-at {" ".join(vals[:k - 1])} {names[-1]}))
"""
    grids = np.indices((size,) * k)
    cells = np.ones((size,) * k, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            cells &= grids[i] != grids[j]
    row = cells[tuple(range(k - 1))]
    return Case(name=f"distinct{k}-{size}", source=source, semiring="boolean",
                modes=BOTH_MODES, emit=(f"distinct{k}-row",),
                expected={f"distinct{k}-at": Expected([vals] * k, cells),
                          f"distinct{k}-row": Expected([vals], row.copy())})


def sum_swap_case(a, b) -> Case:
    na, nb = len(type_values(a)), len(type_values(b))
    ab = type_text(("Sum", a, b))
    ba = type_text(("Sum", b, a))
    source = f"""\
; swap the injection of a sum, at sizes {na} and {nb}
(defrel (sum-swap (forall a b) (x : (Sum a b)) (y : (Sum b a)))
  (disj
    (fresh ((v : a))
      (conj (== x (left v)) (== y (right v))))
    (fresh ((w : b))
      (conj (== x (right w)) (== y (left w))))))

(defrel (swap-at (x : {ab}) (y : {ba}))
  (sum-swap x y))

(defrel (swap-row (y : {ba}))
  (swap-at {type_values(("Sum", a, b))[0]} y))
"""
    n = na + nb
    cells = np.zeros((n, n), dtype=bool)
    for i in range(na):
        cells[i, nb + i] = True        # left v  -> right v
    for j in range(nb):
        cells[na + j, j] = True        # right w -> left w
    x_vals, y_vals = type_values(("Sum", a, b)), type_values(("Sum", b, a))
    return Case(name=f"sum-swap-{na}-{nb}", source=source, semiring="boolean",
                modes=BOTH_MODES, emit=("swap-row",),
                expected={"swap-at": Expected([x_vals, y_vals], cells),
                          "swap-row": Expected([y_vals], cells[0].copy())})


def option_map_case(a, b) -> Case:
    na, nb = len(type_values(a)), len(type_values(b))
    ta, tb = type_text(a), type_text(b)
    f_vals = prod_values(type_values(a), type_values(b))
    x_vals, y_vals = type_values(("Sum", UNIT, a)), type_values(("Sum", UNIT, b))
    source = f"""\
; apply a pair-encoded relation to the payload of an option, at sizes {na} and {nb}
(defrel (option-map (f : (Prod a b)) (x : (Sum Unit a)) (y : (Sum Unit b)))
  (disj
    (conj
      (== x (left sole))
      (== y (left sole)))
    (fresh ((va : a) (vb : b))
      (conj
        (== x (right va))
        (== f (pair va vb))
        (== y (right vb))))))

(defrel (option-map-at (f : (Prod {ta} {tb})) (x : (Sum Unit {ta})) (y : (Sum Unit {tb})))
  (option-map f x y))

(defrel (option-map-row (y : (Sum Unit {tb})))
  (option-map-at {f_vals[0]} {x_vals[1]} y))
"""
    cells = np.zeros((na * nb, 1 + na, 1 + nb), dtype=bool)
    cells[:, 0, 0] = True              # none maps to none under every f
    for va in range(na):
        for vb in range(nb):
            cells[va * nb + vb, 1 + va, 1 + vb] = True
    return Case(name=f"option-map-{na}-{nb}", source=source, semiring="boolean",
                modes=BOTH_MODES, emit=("option-map-row",),
                expected={"option-map-at": Expected([f_vals, x_vals, y_vals], cells),
                          "option-map-row": Expected([y_vals], cells[0, 1].copy())})


def poly_cases(seed: int) -> list[Case]:
    """The seed draws the shape of every concrete type and the size of
    distinct2.  The other sizes are fixed: the large-enough cost of
    sum-swap and option-map grows steeply with them (sum-swap at 12 and 12
    took 60 times as long as at 2 and 12), and distinct3 at the sweep
    sizes carries most of a pass."""
    rng = random.Random(f"poly:{seed}")
    cases = [distinct_case(3, seeded_type(rng, n)) for n in DISTINCT3_SIZES]
    cases.append(distinct_case(2, seeded_type(rng, rng.randint(4, 24))))
    cases.append(sum_swap_case(*(seeded_type(rng, n) for n in SUM_SWAP_SIZES)))
    cases.append(option_map_case(*(seeded_type(rng, n) for n in OPTION_MAP_SIZES)))
    return cases


# ---------------------------------------------------------------------------
# coins: fair from unfair, real semiring

def coins_case(permille: int) -> Case:
    p, q = f"{permille / 1000:.3f}", f"{(1000 - permille) / 1000:.3f}"
    source = f"""\
; a fair coin from an unfair one with skew {p}
(defrel (unfair-coin-flip (coin : (Sum Unit Unit)))
  (disj
    (conj (factor {p}) (== coin (left sole)))
    (conj (factor {q}) (== coin (right sole)))))

(defrel (fair-coin-flip (coin : (Sum Unit Unit)))
  (fresh ((coin1 : (Sum Unit Unit))
          (coin2 : (Sum Unit Unit)))
    (conj
      (unfair-coin-flip coin1)
      (unfair-coin-flip coin2)
      (disj
        (conj (== coin1 coin2) (fair-coin-flip coin))
        (conj (=/= coin1 coin2) (== coin coin1))))))
"""
    coin = type_values(("Sum", UNIT, UNIT))
    return Case(
        name=f"coins-{p}", source=source, semiring="real",
        emit=("fair-coin-flip", "unfair-coin-flip"),
        epsilon=COINS_EPSILON,
        expected={"fair-coin-flip": Expected([coin], np.array([0.5, 0.5])),
                  "unfair-coin-flip": Expected(
                      [coin], np.array([float(p), float(q)]))})


def coins_cases(seed: int) -> list[Case]:
    """One skew per stratum of [0.740, 0.950), plus 0.5, 0.6 and 0.99
    always.

    Rounds grow like 1 / (2 p (1 - p)), so a seeded skew near 0.99 would
    swing the cost of a pass from seed to seed; the fixed 0.99 program
    carries the slow end instead.  Below 0.74, whether the seed's engine
    stops within epsilon of 1/2 flips every few thousandths of skew, so
    seeded skews there would make the number of failing programs depend
    on the seed; the fixed 0.5 and 0.6 cover that range instead."""
    rng = random.Random(f"coins:{seed}")
    bounds = np.linspace(*COINS_SEEDED_RANGE, COINS_SEEDED + 1).astype(int)
    permilles = [rng.randrange(a, b) for a, b in zip(bounds, bounds[1:])]
    permilles += COINS_FIXED_SKEWS
    return [coins_case(p) for p in permilles]


WORKLOADS = {
    "paths": lambda seed: [paths_case(seed)],
    "deep": lambda seed: [deep_case(seed)],
    "poly": poly_cases,
    "coins": coins_cases,
}


def build(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](seed)
