"""Traversal utilities: topological orders, levels, paths, cones.

These are the workhorse routines for the compiler (block decomposition
walks the DAG in depth-first order, the baselines need level structure,
Table I reports longest paths, ...).  Everything here is iterative —
recursion would overflow on the paper's deep SpTRSV DAGs (longest path
929 for ``dw2048``).
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable

import numpy as np

from ..errors import CycleError
from .dag import DAG

# DAGs are immutable, so their traversal structure is a pure function
# of identity.  The compiler runs decompose -> schedule -> liveness ->
# spill -> re-liveness over one DAG; memoizing here means the
# topological order and ASAP levels are computed once per DAG instead
# of once per pass.  Weak keys keep the memo from pinning DAGs alive.
_TOPO_MEMO: "weakref.WeakKeyDictionary[DAG, tuple[np.ndarray, np.ndarray]]"
_TOPO_MEMO = weakref.WeakKeyDictionary()

def _topo_arrays(dag: DAG) -> tuple[np.ndarray, np.ndarray]:
    """Memoized ``(topo_order, levels)`` int32 arrays (shared; read-only).

    The order is classic FIFO Kahn — the order the whole compiler was
    built and goldened against.  A node's ASAP level falls out of the
    same sweep: in FIFO Kahn a node is enqueued exactly when its last
    predecessor is processed, so its dequeue "generation" equals
    ``1 + max(level(pred))``.
    """
    cached = _TOPO_MEMO.get(dag)
    if cached is not None:
        return cached
    n = dag.num_nodes
    succs = dag._succs
    indegree = [len(p) for p in dag._preds]
    order: list[int] = [v for v in range(n) if indegree[v] == 0]
    levels = [0] * n
    head = 0
    level_of = levels  # alias: read as "level written so far"
    # order doubles as the FIFO queue: items are appended as they
    # become ready and `head` walks the settled prefix.
    while head < len(order):
        node = order[head]
        head += 1
        node_level = level_of[node] + 1
        for succ in succs[node]:
            indegree[succ] -= 1
            if level_of[succ] < node_level:
                level_of[succ] = node_level
            if indegree[succ] == 0:
                order.append(succ)
    if len(order) != n:
        raise CycleError(
            f"graph has a cycle: only {len(order)}/{dag.num_nodes} nodes "
            "are topologically sortable"
        )
    result = (
        np.asarray(order, dtype=np.int32),
        np.asarray(levels, dtype=np.int32),
    )
    _TOPO_MEMO[dag] = result
    return result


def topological_order_array(dag: DAG) -> np.ndarray:
    """Memoized FIFO-Kahn order as an int32 array (shared; read-only)."""
    return _topo_arrays(dag)[0]


def node_levels_array(dag: DAG) -> np.ndarray:
    """Memoized ASAP levels as an int32 array (shared; read-only)."""
    return _topo_arrays(dag)[1]


def topological_order(dag: DAG) -> list[int]:
    """Kahn topological order of all nodes.

    Raises:
        CycleError: If the graph contains a cycle (should be impossible
            for builder-produced DAGs but guards external input files).
    """
    return _topo_arrays(dag)[0].tolist()


def node_levels(dag: DAG) -> list[int]:
    """As-soon-as-possible level of every node.

    Leaves are level 0; an arithmetic node is one past the max level of
    its inputs.  This is the "wavefront" structure used by the CPU/GPU
    baselines (level-parallel execution) and by Table I's longest path.
    """
    return _topo_arrays(dag)[1].tolist()


def level_sets(dag: DAG) -> list[list[int]]:
    """Nodes grouped by ASAP level, leaves first."""
    levels = node_levels(dag)
    depth = max(levels, default=0)
    groups: list[list[int]] = [[] for _ in range(depth + 1)]
    for node, lvl in enumerate(levels):
        groups[lvl].append(node)
    return groups


def longest_path_length(dag: DAG) -> int:
    """Number of nodes on the longest directed path.

    Matches the "Longest path (l)" column of Table I, which counts
    nodes (a single node is a path of length 1).
    """
    if dag.num_nodes == 0:
        return 0
    return max(node_levels(dag)) + 1


def arithmetic_longest_path(dag: DAG) -> int:
    """Longest chain counting only arithmetic nodes.

    This is the critical path of actual operations — the quantity that
    bounds parallel speedup.
    """
    best = [0] * dag.num_nodes
    from .node import OpType

    for node in topological_order(dag):
        here = 0 if dag.op(node) is OpType.INPUT else 1
        preds = dag.predecessors(node)
        best[node] = here + (max((best[p] for p in preds), default=0))
    return max(best, default=0)


def dfs_order(dag: DAG) -> list[int]:
    """Depth-first post-order position of every node.

    Algorithm 1 uses the difference of DFS positions as a cheap
    proximity metric when combining subgraphs into a block (objective
    D): subgraphs whose nodes appear close together in a depth-first
    traversal tend to share ancestry, which keeps inter-block
    dependencies short.

    Returns:
        ``position`` list where ``position[node]`` is the node's index
        in a DFS over the reversed DAG starting from the sinks.
    """
    position = [-1] * dag.num_nodes
    counter = 0
    visited = [False] * dag.num_nodes
    preds_of = dag._preds
    for root in dag.sinks():
        if visited[root]:
            continue
        visited[root] = True
        # Path from the root, and per node an iterator over the
        # predecessors it has not descended into yet.
        path = [root]
        pending = [iter(preds_of[root])]
        while path:
            for child in pending[-1]:
                if not visited[child]:
                    visited[child] = True
                    path.append(child)
                    pending.append(iter(preds_of[child]))
                    break
            else:
                position[path.pop()] = counter
                pending.pop()
                counter += 1
    # Isolated nodes (no path to any sink) — cannot happen for builder
    # DAGs, but keep the function total.
    for node in dag.nodes():
        if position[node] == -1:
            position[node] = counter
            counter += 1
    return position


def ancestors_within(dag: DAG, node: int, distance: int) -> set[int]:
    """All ancestors of ``node`` reachable within ``distance`` edges."""
    found: set[int] = set()
    frontier = {node}
    for _ in range(distance):
        nxt: set[int] = set()
        for n in frontier:
            for p in dag.predecessors(n):
                if p not in found:
                    found.add(p)
                    nxt.add(p)
        if not nxt:
            break
        frontier = nxt
    return found


def descendants_within(dag: DAG, nodes: Iterable[int], distance: int) -> set[int]:
    """All descendants of ``nodes`` reachable within ``distance`` edges."""
    found: set[int] = set()
    frontier = set(nodes)
    for _ in range(distance):
        nxt: set[int] = set()
        for n in frontier:
            for s in dag.successors(n):
                if s not in found:
                    found.add(s)
                    nxt.add(s)
        if not nxt:
            break
        frontier = nxt
    return found


def reachable_from(dag: DAG, roots: Iterable[int]) -> set[int]:
    """Transitive successors of ``roots`` (roots excluded)."""
    found: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        for s in dag.successors(node):
            if s not in found:
                found.add(s)
                stack.append(s)
    return found


def width_profile(dag: DAG) -> list[int]:
    """Number of nodes per ASAP level — the DAG's parallelism profile."""
    return [len(group) for group in level_sets(dag)]
