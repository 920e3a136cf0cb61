"""Shared plumbing for the test suite: corpus loading and one-call runs."""
import os
import random
import threading
from dataclasses import dataclass
from typing import Optional

from skn import parse_program, check_program, fixpoint, lower_program, type_size
from skn.poly import _Lowering

PROGRAM_DIR = os.path.join(os.path.dirname(__file__), "programs")

CORPUS = [
    "coin-flip.skn",
    "coins.skn",
    "connect.skn",
    "equal.skn",
    "sum-swap.skn",
    "two-valued.skn",
    "option-map.skn",
]

# factor-free (or 0/1-factor) programs usable under any semiring
IDEMPOTENT_CORPUS = [f for f in CORPUS if f != "coins.skn"]


def load(name: str) -> str:
    with open(os.path.join(PROGRAM_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def skewed_coins_source() -> str:
    """coins.skn with the unfair coin at p = 0.99, where a round shrinks the
    error of fair-coin-flip only by 1 - 2p(1 - p) = 0.9802."""
    return load("coins.skn").replace("0.7", "0.99").replace("0.3", "0.01")


def right_nested_sum(n: int) -> tuple[str, list[str]]:
    """The text of a right-nested sum of n Units and of its n values, in
    index order."""
    t = "Unit"
    for _ in range(n - 1):
        t = f"(Sum Unit {t})"
    vals = ["(right " * k + "(left sole)" + ")" * k for k in range(n - 1)]
    vals.append("(right " * (n - 1) + "sole" + ")" * (n - 1))
    return t, vals


def _chain_graph(n: int) -> tuple[str, list[str], str]:
    """The type, values and `graph` relation of chain-n."""
    t, vals = right_nested_sum(n)
    edges = "\n".join(f"    (conj (== x {a}) (== y {b}))" for a, b in zip(vals, vals[1:]))
    return t, vals, f"(defrel (graph (x : {t}) (y : {t}))\n  (disj\n{edges}))\n"


def chain_source(n: int) -> str:
    """chain-n: an (n-1)-edge path over a right-nested sum of n Units, with
    its transitive closure `connect` and the one-row `from0`."""
    t, vals, graph = _chain_graph(n)
    return (f"{graph}(defrel (connect (x : {t}) (y : {t}))\n  (disj (graph x y)\n"
            f"    (fresh ((z : {t})) (conj (connect x z) (connect z y)))))\n"
            f"(defrel (from0 (y : {t})) (connect {vals[0]} y))\n")


def reach_source(n: int) -> str:
    """chain-n's `graph` with `reach`, the nodes one or more edges from the
    first: a linear group whose every round but the last adds one node."""
    t, vals, graph = _chain_graph(n)
    return (f"{graph}(defrel (reach (y : {t}))\n  (disj (graph {vals[0]} y)\n"
            f"    (fresh ((z : {t})) (conj (reach z) (graph z y)))))\n")


def paths_source(seed: int, n: int = 128, weight: Optional[str] = None) -> str:
    """A paths-shaped program over n nodes (a multiple of 8), each a pair of
    an 8-valued and an n/8-valued right-nested sum: `edge` is a ring plus n
    seeded chords, each weighted by its `weight` literal or, if None, by a
    seeded integer from 1 to 9; `dist` joins it with itself by the
    min-plus product of `paths`, `(conj (dist x z) (dist z y))`."""
    (ta, va), (tb, vb) = right_nested_sum(8), right_nested_sum(n // 8)
    t, vals = f"(Prod {ta} {tb})", [f"(pair {a} {b})" for a in va for b in vb]
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n) for i in range(n)] + \
        [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    rows = "\n".join(f"    (conj (== x {vals[a]}) (== y {vals[b]}) "
                     f"(factor {weight or rng.randint(1, 9)}))" for a, b in edges)
    return (f"(defrel (edge (x : {t}) (y : {t}))\n  (disj\n{rows}))\n"
            f"(defrel (dist (x : {t}) (y : {t}))\n  (disj (edge x y)\n"
            f"    (fresh ((z : {t})) (conj (dist x z) (dist z y)))))\n")


def walk_source(seed: int, n: int = 8, p: float = 0.99) -> str:
    """A random walk on n nodes that goes on with probability p: `step`
    holds row weights p·w/Σw, with each w drawn from a seeded generator,
    and `hit` is the weight of every walk from x that reaches y."""
    t, vals = right_nested_sum(n)
    rng = random.Random(seed)
    rows = []
    for a in vals:
        w = [rng.random() for _ in vals]
        rows += [f"    (conj (== x {a}) (== y {b}) (factor {p * wb / sum(w)!r}))"
                 for b, wb in zip(vals, w)]
    steps = "\n".join(rows)
    return (f"(defrel (step (x : {t}) (y : {t}))\n  (disj\n{steps}))\n"
            f"(defrel (hit (x : {t}) (y : {t}))\n  (disj (== x y)\n"
            f"    (fresh ((z : {t})) (conj (step x z) (hit z y)))))\n")


def thread_starts(monkeypatch) -> list:
    """The threads started from now on, each appended as it starts."""
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
    return starts


def checked(source: str):
    return check_program(parse_program(source))


def run_source(source: str, spec, mode: str = "monomorphize",
               epsilon=None, max_iters: int = 10000):
    lowered = lower_program(checked(source), mode, spec)
    return lowered, fixpoint(lowered, spec, epsilon=epsilon, max_iters=max_iters)


def distinct3_source(t: str) -> str:
    """The 3-ary `=/=` program: pairwise-distinct triples of one type
    variable, called at the type with text `t`."""
    return f"""(defrel (distinct3 (forall a) (x : a) (y : a) (z : a))
  (conj (=/= x y) (conj (=/= x z) (=/= y z))))
(defrel (distinct3-at (x : {t}) (y : {t}) (z : {t}))
  (distinct3 x y z))
"""


@dataclass(frozen=True)
class InstanceKey:
    rel: str
    sizes: tuple[tuple[str, int], ...]  # per tyvar, in declaration order


def collect_instances(p, mode: str) -> set[InstanceKey]:
    """The instance keys the lowered program will contain: one per
    monomorphic relation (empty sizes) plus one per generated instance."""
    ctx = _Lowering(p, mode)
    ctx.run()
    keys = {InstanceKey(rel.name, ()) for rel in p.relations if not rel.tyvars}
    for (relname, sigma_types), _ in ctx.instances.items():
        source = ctx.source[relname]
        sizes = tuple((tv, type_size(t))
                      for tv, t in zip(source.tyvars, sigma_types))
        keys.add(InstanceKey(relname, sizes))
    return keys
