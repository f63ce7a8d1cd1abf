"""Cone construction: tree-mappable subgraphs of the binarized DAG.

Step 1 of the compiler decomposes the DAG into subgraphs that each map
onto one PE (sub)tree.  Following fig. 9(c) of the paper, *any*
connected subgraph with 2-input nodes, a single sink, and longest path
length <= the tree depth can be mapped — non-tree subgraphs are handled
by replicating shared nodes.

We realize that via *unrolling*: the cone of a sink node ``s`` is the
complete expansion of ``s``'s uncomputed ancestor region into a binary
tree.  A node shared by two paths simply appears twice (replication);
branches that bottom out early (one operand already computed) are
padded with PASS stages so every leaf sits at the port level of the PE
tree, because register read ports only feed layer-1 PEs.

The cone's *height* is the slot depth it needs; its *leaves* are
already-computed variables (earlier blocks' outputs or external
inputs); its *nodes* are the uncomputed DAG nodes it covers — these
become computed once the enclosing block executes.

Unrolled cones are stored in *heap layout* (``kinds``/``vals``
position arrays: the root at position 0, children of position ``p`` at
``2p + 1`` / ``2p + 2``) so the decomposer and the placer never chase
object trees on the hot path; the object form (:data:`Inst`) is still
available through :attr:`Cone.root`, built lazily for tests and
analysis code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CompileError
from ..graphs import DAG, OpType


@dataclass(frozen=True)
class LeafInst:
    """A cone leaf: reads variable ``var`` from a register port."""

    var: int


@dataclass(frozen=True)
class OpInst:
    """An arithmetic instance computing DAG node ``node``."""

    node: int
    op: OpType
    left: "Inst"
    right: "Inst"


@dataclass(frozen=True)
class PassInst:
    """A padding stage forwarding its (left) child unchanged."""

    child: "Inst"


Inst = LeafInst | OpInst | PassInst

#: Heap-layout position kinds.
K_ABSENT = 0
K_LEAF = 1
K_PASS = 2
K_ADD = 3
K_MUL = 4

_OP_OF_KIND = {K_ADD: OpType.ADD, K_MUL: OpType.MUL}


@dataclass(frozen=True)
class Cone:
    """One tree-mappable subgraph (fig. 9(c)), fully unrolled.

    Attributes:
        sink: DAG node computed at the cone root.
        height: PE layers needed (= slot depth); leaves sit at depth
            ``height`` below the root.
        kinds: Per heap position, one of ``K_ABSENT``/``K_LEAF``/
            ``K_PASS``/``K_ADD``/``K_MUL``.
        vals: Per heap position, the leaf variable (``K_LEAF``) or the
            DAG node computed (``K_ADD``/``K_MUL``); ``-1`` otherwise.
        nodes: Distinct uncomputed DAG nodes covered by the cone.
        leaf_vars: Distinct precomputed variables read at the ports.
        num_instances: PE count used, including PASS padding and
            replicas.
    """

    sink: int
    height: int
    kinds: tuple[int, ...]
    vals: tuple[int, ...]
    nodes: frozenset[int]
    leaf_vars: frozenset[int]
    num_instances: int

    @property
    def root(self) -> Inst:
        """Object form of the unrolled tree (built lazily from layout)."""
        cached = getattr(self, "_root", None)
        if cached is None:
            cached = self._build_inst(0)
            object.__setattr__(self, "_root", cached)
        return cached

    # The lazily-built object tree is derived data — keep it out of
    # pickles (cache artifacts, worker round-trips).
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_root", None)
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def _build_inst(self, pos: int) -> Inst:
        kind = self.kinds[pos]
        if kind == K_LEAF:
            return LeafInst(var=self.vals[pos])
        if kind == K_PASS:
            return PassInst(child=self._build_inst(2 * pos + 1))
        if kind in (K_ADD, K_MUL):
            return OpInst(
                node=self.vals[pos],
                op=_OP_OF_KIND[kind],
                left=self._build_inst(2 * pos + 1),
                right=self._build_inst(2 * pos + 2),
            )
        raise CompileError(f"cone {self.sink}: empty heap position {pos}")


def cone_height(dag: DAG, computed, node: int, cap: int) -> int:
    """Height of ``node``'s uncomputed cone, capped at ``cap + 1``.

    ``computed`` is an indexable truth map (list/array of bool) marking
    nodes whose values already live outside the datapath.  The returned
    value is the PE-tree depth needed to evaluate ``node``; any value
    greater than ``cap`` is reported as ``cap + 1`` ("does not fit") so
    callers can bucket without unbounded recursion.

    Iterative post-order walk — cones deeper than ``cap`` are cut off,
    so the walk visits at most ``O(2^cap)`` instances.
    """
    if computed[node]:
        return 0
    overflow = cap + 1
    preds_of = dag._preds
    # (node, depth_from_root); explicit stack with memo keyed by node
    # *at this computed-state*: heights only depend on the computed map,
    # so a per-call memo is sound and keeps replication cheap.
    memo: dict[int, int] = {}

    def height_of(n: int, budget: int) -> int:
        if computed[n]:
            return 0
        if budget <= 0:
            return overflow
        cached = memo.get(n)
        if cached is not None:
            return cached
        worst = 0
        for p in preds_of[n]:
            h = height_of(p, budget - 1)
            if h >= budget:
                memo[n] = overflow
                return overflow
            if h > worst:
                worst = h
        result = worst + 1
        memo[n] = result
        return result

    return height_of(node, cap)


def build_cone(
    dag: DAG,
    computed,
    sink: int,
    max_height: int,
    height: int,
) -> Cone | None:
    """Unroll ``sink``'s uncomputed region into a cone.

    ``height`` is the sink's cone height under ``computed``, as
    :func:`cone_height` gives it (the decomposer maintains every
    node's height incrementally and passes that).  Returns ``None`` if
    the region is deeper than ``max_height`` (the candidate is not
    schedulable yet) or if ``sink`` is already computed.
    """
    if height == 0 or height > max_height:
        return None

    size = (1 << (height + 1)) - 1
    kinds = [K_ABSENT] * size
    vals = [-1] * size
    nodes: set[int] = set()
    leaf_vars: set[int] = set()
    count = 0
    preds_of = dag._preds
    ops_of = dag._ops
    add = OpType.ADD

    # Iterative unroll into heap positions.  ``below`` is the number of
    # levels between this instance and the port row.
    stack: list[tuple[int, int, int]] = [(sink, 0, height)]
    pop = stack.pop
    push = stack.append
    while stack:
        n, pos, below = pop()
        if computed[n]:
            # Pad with PASS stages down to the port level.
            leaf_vars.add(n)
            count += below
            for _ in range(below):
                kinds[pos] = K_PASS
                pos = 2 * pos + 1
            kinds[pos] = K_LEAF
            vals[pos] = n
            continue
        preds = preds_of[n]
        if len(preds) != 2:
            raise CompileError(
                f"node {n} has fan-in {len(preds)}; DAG must be binarized"
            )
        nodes.add(n)
        count += 1
        # Fan-in 2 means ADD or MUL (INPUT nodes have none).
        kinds[pos] = K_ADD if ops_of[n] is add else K_MUL
        vals[pos] = n
        below -= 1
        push((preds[1], 2 * pos + 2, below))
        push((preds[0], 2 * pos + 1, below))

    return Cone(
        sink=sink,
        height=height,
        kinds=tuple(kinds),
        vals=tuple(vals),
        # Built as sets, then copied: a block's node order, which the
        # later passes follow, inherits this iteration order, and a
        # frozenset built another way can iterate differently.
        nodes=frozenset(nodes),
        leaf_vars=frozenset(leaf_vars),
        num_instances=count,
    )


def cone_depth_of(inst: Inst) -> int:
    """Height of an instance subtree (LeafInst = 0); test helper."""
    if isinstance(inst, LeafInst):
        return 0
    if isinstance(inst, PassInst):
        return 1 + cone_depth_of(inst.child)
    return 1 + max(cone_depth_of(inst.left), cone_depth_of(inst.right))


def evaluate_cone(root: Inst, values: dict[int, float]) -> float:
    """Reference evaluation of a cone given leaf-variable values.

    Used by tests to check placement/datapath agreement.
    """
    if isinstance(root, LeafInst):
        return values[root.var]
    if isinstance(root, PassInst):
        return evaluate_cone(root.child, values)
    a = evaluate_cone(root.left, values)
    b = evaluate_cone(root.right, values)
    return root.op.apply(a, b)
