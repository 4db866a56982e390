"""The support of an allocation profile: the digraph of its positive
weights.  ``AllocationProfile.support`` builds it once per profile, and the
structure checks read it there."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np


def _sweep(adjacent: list[list[int]], roots: Iterable[int]) -> list[tuple[int, ...]]:
    """Components grown from ``roots`` in turn: each root not yet taken takes
    every untaken agent it reaches through ``adjacent``.  Members sorted,
    components in the order of their roots."""
    taken = [False] * len(adjacent)
    found = []
    for root in roots:
        if taken[root]:
            continue
        taken[root] = True
        members = [root]
        for v in members:  # the list grows while it is read
            for u in adjacent[v]:
                if not taken[u]:
                    taken[u] = True
                    members.append(u)
        found.append(tuple(sorted(members)))
    return found


class _Support:
    """Positive-weight digraph of ``weights`` as CSR arrays, its adjacency lists
    and its strongly connected components (Kosaraju's), each built on first
    use.  Edges come row-major, so every agent's successors and predecessors ascend."""

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        self.rows, self.cols = np.nonzero(weights > 0)

    def _lists(self, keys: np.ndarray, values: np.ndarray) -> list[list[int]]:
        # keys ascend, values ascend within each key
        offsets = np.searchsorted(keys, np.arange(len(self.weights) + 1)).tolist()
        flat = values.tolist()
        return [flat[a:b] for a, b in zip(offsets, offsets[1:])]

    @cached_property
    def succ(self) -> list[list[int]]:
        return self._lists(self.rows, self.cols)

    @cached_property
    def pred(self) -> list[list[int]]:
        order = np.argsort(self.cols, kind="stable")
        return self._lists(self.cols[order], self.rows[order])

    @cached_property
    def sccs(self) -> list[tuple[int, ...]]:
        """Strongly connected components, members sorted, ordered by smallest
        member: Kosaraju's two passes in O(n + m), a depth-first finish order
        over ``succ``, then a sweep over ``pred``, latest finished first."""
        succ = self.succ
        seen = [False] * len(succ)
        finished = []
        for root in range(len(succ)):
            if seen[root]:
                continue
            seen[root] = True
            path = [(root, iter(succ[root]))]
            while path:
                v, targets = path[-1]
                for u in targets:
                    if not seen[u]:  # descend; v's remaining targets wait
                        seen[u] = True
                        path.append((u, iter(succ[u])))
                        break
                else:  # v is finished
                    path.pop()
                    finished.append(v)
        return sorted(_sweep(self.pred, reversed(finished)))  # disjoint: by smallest member

    @cached_property
    def labels(self) -> np.ndarray:
        """labels[v] is the position of v's component in ``sccs``."""
        labels = np.empty(len(self.weights), dtype=np.intp)
        for k, members in enumerate(self.sccs):
            labels[list(members)] = k
        return labels

    def shortest_path(self, source: int, target: int, avoid: int) -> list[int]:
        """A shortest source ~> target path (source != target) that never
        enters ``avoid``, by breadth-first search from ``source``: successors
        are read in ascending order, each agent keeps the first agent that
        reached it, and the search stops when it reaches ``target``.  That
        is the path of networkx's ``bfs_predecessors`` on the support with
        its edges inserted row-major, which the tests pin it to."""
        reached_from = {source: None}
        fringe = [source]
        for a in fringe:  # the list grows while it is read
            for b in self.succ[a]:
                if b == avoid or b in reached_from:
                    continue
                reached_from[b] = a
                if b == target:
                    path = [b]
                    while reached_from[path[-1]] is not None:
                        path.append(reached_from[path[-1]])
                    return path[::-1]
                fringe.append(b)
        raise ValueError(f"no path from {source} to {target} avoiding {avoid}")
