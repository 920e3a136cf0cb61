"""Shared plumbing for the test suite: corpus loading and one-call runs."""
import os

from skn import parse_program, check_program, fixpoint, lower_program

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


def chain_source(n: int) -> str:
    """chain-n: an (n-1)-edge path over a right-nested sum of n Units, with
    its transitive closure `connect` and the one-row `from0`."""
    t = "Unit"
    for _ in range(n - 1):
        t = f"(Sum Unit {t})"
    vals = ["(right " * k + "(left sole)" + ")" * k for k in range(n - 1)]
    vals.append("(right " * (n - 1) + "sole" + ")" * (n - 1))
    edges = "\n".join(f"    (conj (== x {a}) (== y {b}))" for a, b in zip(vals, vals[1:]))
    return (f"(defrel (graph (x : {t}) (y : {t}))\n  (disj\n{edges}))\n"
            f"(defrel (connect (x : {t}) (y : {t}))\n  (disj (graph x y)\n"
            f"    (fresh ((z : {t})) (conj (connect x z) (connect z y)))))\n"
            f"(defrel (from0 (y : {t})) (connect {vals[0]} y))\n")


def checked(source: str):
    return check_program(parse_program(source))


def run_source(source: str, spec, mode: str = "monomorphize",
               epsilon=None, max_iters: int = 10000):
    lowered = lower_program(checked(source), mode, spec)
    return lowered, fixpoint(lowered, spec, epsilon=epsilon, max_iters=max_iters)
