"""Independent oracles used to freeze expected values.

These deliberately avoid the routes used by the package: walk masses are
obtained by literal path enumeration (exponential, small cases) and by
per-length series accumulation (any depth), c* by value iteration rather
than policy iteration, and strongly connected components by transitive
closure, so results can be checked against genuinely different computations.
"""

from __future__ import annotations

import math

import numpy as np

from katzforge import GameInstance, v_map


def brute_walk_sums(a: np.ndarray, i: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Literal enumeration of every walk up to ``max_len`` edges.

    Returns (S_avoid, S_hit) with shape (n, max_len): S_avoid[j, m-1] sums
    length-m walks from j that never touch i, S_hit[j, m-1] sums length-m
    walks from j whose only visit to i is the terminal node.
    """
    n = a.shape[0]
    s_avoid = np.zeros((n, max_len))
    s_hit = np.zeros((n, max_len))

    def rec(j0: int, v: int, length: int, weight: float) -> None:
        if length == max_len:
            return
        for u in range(n):
            wgt = weight * a[v, u]
            if wgt == 0.0:
                continue
            if u == i:
                s_hit[j0, length] += wgt
            else:
                s_avoid[j0, length] += wgt
                rec(j0, u, length + 1, wgt)

    for j0 in range(n):
        if j0 != i:
            rec(j0, j0, 0, 1.0)
    return s_avoid, s_hit


def series_pq(a: np.ndarray, i: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """p and q for focal agent i by accumulating the deleted-graph walk series
    to ``depth`` (per-entry tail below B_M^(depth+1) / (1 - B_M))."""
    n = a.shape[0]
    a0 = np.array(a)
    a0[i, :] = 0.0
    a0[:, i] = 0.0
    col = np.array(a[:, i])
    col[i] = 0.0

    p = np.zeros(n)
    q = np.zeros(n)
    vec_p = a0 @ np.ones(n)  # length-1 walks avoiding i
    vec_q = col.copy()  # length-1 walks ending at i
    for _ in range(depth):
        p += vec_p
        q += vec_q
        vec_p = a0 @ vec_p
        vec_q = a0 @ vec_q
    return p, q


def series_pq_per_length(a: np.ndarray, i: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-length variant of ``series_pq`` matching ``brute_walk_sums`` shapes."""
    n = a.shape[0]
    a0 = np.array(a)
    a0[i, :] = 0.0
    a0[:, i] = 0.0
    col = np.array(a[:, i])
    col[i] = 0.0

    s_avoid = np.zeros((n, max_len))
    s_hit = np.zeros((n, max_len))
    vec_p = a0 @ np.ones(n)
    vec_q = col.copy()
    for m in range(max_len):
        s_avoid[:, m] = vec_p
        s_hit[:, m] = vec_q
        vec_p = a0 @ vec_p
        vec_q = a0 @ vec_q
    return s_avoid, s_hit


def series_tail_bound(b_max: float, depth: int) -> float:
    return b_max ** (depth + 1) / (1.0 - b_max)


def value_iteration_oracle(g: GameInstance, tol: float) -> np.ndarray:
    """c* within ``tol`` by iterating x <- v(x) from 0 until the a-posteriori
    contraction bound ||x - c*|| <= B_M/(1-B_M) * ||step|| drops below tol.

    The stopping threshold falls below one ulp of c* as B_M nears 1, so keep
    B_M <= 0.99; the iteration cap turns a stall into a failure, not a hang.
    """
    bm = g.b_max
    threshold = tol * (1 - bm) / bm
    cap = max(1, math.ceil(math.log(threshold) / math.log(bm)) + 1) + 8
    x = np.zeros(g.n)
    for _ in range(cap + 1):
        x_next = v_map(g, x)
        assert np.all(x_next >= x)  # monotone from below: v is monotone, x starts at 0
        step = float(np.max(np.abs(x_next - x)))
        x = x_next
        if step <= threshold:
            return x
    raise ArithmeticError("value iteration exceeded its a-priori bound")


def same_scc_oracle(a: np.ndarray) -> np.ndarray:
    """Boolean matrix: i and j share a strongly connected component of the
    digraph with edges a > 0 iff each reaches the other (transitive closure
    by repeated squaring of the reflexive reachability matrix)."""
    reach = (a > 0) | np.eye(a.shape[0], dtype=bool)
    while True:
        closed = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        if np.array_equal(closed, reach):
            return reach & reach.T
        reach = closed
