"""UTS tree generation: SHA-1 splittable random streams.

Follows the UTS benchmark definition: a node is a 20-byte SHA-1 digest;
child ``i`` of a node is ``SHA1(digest || i)``.  The node's child count
is a deterministic function of its digest and depth:

* **geometric** trees — the child count is geometrically distributed
  with depth-dependent expectation ``b(d) = b0 * (1 - d / gen_mx)``
  (linear shape) truncated at depth ``gen_mx``.  Moderately unbalanced;
  the workload of Figures 7-8.
* **binomial** trees — the root has ``b0`` children; every other node
  has ``m`` children with probability ``q`` and none otherwise.  With
  ``q * m < 1`` the tree is finite but its subtree sizes have huge
  variance: the classic stress test for work stealing.

Because the digest chain fully determines the tree, any traversal order
(or parallelization) yields identical node/leaf counts — which is how
the tests validate the runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import sha1

__all__ = ["UTSParams", "UTSNode", "TreeStats", "root_node", "children_of", "count_tree", "num_children"]


@dataclass(frozen=True)
class UTSParams:
    """Parameters selecting a deterministic UTS tree.

    Attributes:
        tree_type: ``"geometric"`` or ``"binomial"``.
        b0: Root branching factor (also the expected branching at depth 0
            for geometric trees).
        gen_mx: Maximum depth of a geometric tree.
        q: Probability a non-root binomial node has children.
        m: Number of children of a non-leaf binomial node.
        root_seed: Seed of the root digest; different seeds give
            completely different trees.
    """

    tree_type: str = "geometric"
    b0: float = 4.0
    gen_mx: int = 6
    q: float = 0.15
    m: int = 4
    root_seed: int = 19

    def __post_init__(self) -> None:
        """Check each field against its domain; a ``ValueError`` message
        starts with the field's name and a colon.  Each test is written as
        ``not <in domain>``, so that nan fails it too."""
        if self.tree_type not in ("geometric", "binomial"):
            raise ValueError(f"tree_type: unknown tree type {self.tree_type!r}")
        if not (math.isfinite(self.b0) and self.b0 > 0):
            raise ValueError(f"b0: must be a finite number > 0, got {self.b0}")
        if not 0 <= self.root_seed < 2**64:  # the root digest hashes 8 bytes
            raise ValueError(f"root_seed: must be in [0, 2**64), got {self.root_seed}")
        if self.tree_type == "geometric" and not self.gen_mx >= 1:
            raise ValueError(f"gen_mx: must be >= 1, got {self.gen_mx}")
        if self.tree_type == "binomial":
            if not self.b0 >= 1:
                raise ValueError(f"b0: a binomial root needs >= 1 child, got {self.b0}")
            if not self.m >= 1:
                raise ValueError(f"m: must be >= 1, got {self.m}")
            if not self.q >= 0:
                raise ValueError(f"q: must be >= 0, got {self.q}")
            if not self.q * self.m < 1.0:
                raise ValueError(
                    f"q: binomial tree needs q*m < 1, got {self.q * self.m:.3f} "
                    "(>= 1 is supercritical: infinite with positive probability)"
                )
        # Geometric trees: log(1 - p(d)) per depth, the denominator of the
        # inverse-CDF sample in num_children (0.0 where 1 - p(d) rounds to
        # 0: b(d) too small for any children).  A plain attribute, not a
        # field: eq/hash/repr ignore it.
        table = []
        if self.tree_type == "geometric":
            for depth in range(self.gen_mx):
                b_d = self.b0 * (1.0 - depth / self.gen_mx)
                q_d = 1.0 - 1.0 / (1.0 + b_d)
                table.append(math.log(q_d) if q_d > 0 else 0.0)
        object.__setattr__(self, "_log_q", tuple(table))


@dataclass(frozen=True)
class UTSNode:
    """One tree node: its SHA-1 digest and its depth."""

    digest: bytes
    depth: int


@dataclass
class TreeStats:
    """Exhaustive traversal statistics (the benchmark's checksum)."""

    nodes: int = 0
    leaves: int = 0
    max_depth: int = 0

    def merge(self, other: "TreeStats") -> "TreeStats":
        return TreeStats(
            nodes=self.nodes + other.nodes,
            leaves=self.leaves + other.leaves,
            max_depth=max(self.max_depth, other.max_depth),
        )


def root_node(params: UTSParams) -> UTSNode:
    """The root of the tree selected by ``params``."""
    digest = sha1(params.root_seed.to_bytes(8, "big")).digest()
    return UTSNode(digest=digest, depth=0)


_UNIFORM_SCALE = float(1 << 56)
_from_bytes = int.from_bytes  # bound once: the type lookup costs more than the call
_new = object.__new__

#: Big-endian 4-byte child indices, the SHA-1 suffix of the common case.
_SUFFIXES = tuple(i.to_bytes(4, "big") for i in range(256))


def num_children(params: UTSParams, node: UTSNode) -> int:
    """Deterministic child count of ``node``."""
    # the digest's leading 7 bytes as a uniform value in [0, 1)
    u = _from_bytes(node.digest[:7], "big") / _UNIFORM_SCALE
    depth = node.depth
    if params.tree_type == "geometric":
        if depth >= params.gen_mx:
            return 0
        log_q = params._log_q[depth]  # log(1 - p), p = 1 / (1 + b(depth))
        if not log_q:
            return 0
        # inverse-CDF sample of Geometric(p) supported on {0, 1, 2, ...}
        return math.floor(math.log(1.0 - u) / log_q)
    # binomial
    if depth == 0:
        return int(params.b0)
    return params.m if u < params.q else 0


def children_of(params: UTSParams, node: UTSNode) -> list[UTSNode]:
    """Generate the children of ``node`` via the SHA-1 chain."""
    n = num_children(params, node)
    if n <= 0:
        return []
    # Hash the shared 20-byte prefix once; each child extends a copy.
    fork = sha1(node.digest).copy
    depth = node.depth + 1
    out = []
    for i in range(n):
        h = fork()
        h.update(_SUFFIXES[i] if i < 256 else i.to_bytes(4, "big"))
        # UTSNode(h.digest(), depth) without the frozen dataclass
        # __init__, which stores each field through object.__setattr__.
        child = _new(UTSNode)
        fields = child.__dict__
        fields["digest"] = h.digest()
        fields["depth"] = depth
        out.append(child)
    return out


def count_tree(params: UTSParams, max_nodes: int | None = None) -> TreeStats:
    """Sequentially traverse the whole tree (reference implementation).

    Args:
        max_nodes: Abort with :class:`ValueError` if the tree exceeds this
            many nodes — a guard against accidentally huge parameters.
    """
    stats = TreeStats()
    stack = [root_node(params)]
    while stack:
        node = stack.pop()
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, node.depth)
        if max_nodes is not None and stats.nodes > max_nodes:
            raise ValueError(f"tree exceeds max_nodes={max_nodes}")
        kids = children_of(params, node)
        if not kids:
            stats.leaves += 1
        else:
            stack.extend(kids)
    return stats
