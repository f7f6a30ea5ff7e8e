"""Rooted trees with edges directed toward the root.

A tree on n nodes is stored as a parent array plus a label assignment.
Node ids are 0..n-1 and are positional; labels are a bijection onto
0..n-1 and are what protocols actually see.  The root is the unique
node whose parent entry points at itself (-1 is accepted as an alias
on input).

Besides construction and generators this module computes generalized
Strahler heights ("gamma-heights"): a leaf has height 0, and an
internal node whose children's maximum height is g gets height g+1
when at least gamma children attain g, otherwise g.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np


class TreeError(ValueError):
    pass


class CycleDetected(TreeError):
    pass


class MultipleRoots(TreeError):
    pass


class UnreachableNode(TreeError):
    pass


class LabelsNotBijective(TreeError):
    pass


class EmptyResult(TreeError):
    pass


class InvalidOffset(TreeError):
    pass


@dataclasses.dataclass(frozen=True)
class Tree:
    """Immutable rooted tree; all derived arrays are precomputed."""

    n: int
    parent: tuple[int, ...]
    root: int
    label: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    label_to_node: tuple[int, ...]

    def node_with_label(self, lab: int) -> int:
        return self.label_to_node[lab]

    def leaves(self) -> list[int]:
        return [v for v in range(self.n) if not self.children[v]]

    def subtree_sizes(self) -> list[int]:
        """Number of nodes in the subtree hanging at each node (inclusive)."""
        size = [1] * self.n
        for v in _nodes_deep_first(self):
            if v != self.root:
                size[self.parent[v]] += size[v]
        return size


def _nodes_deep_first(tree: Tree) -> list[int]:
    order = sorted(range(tree.n), key=lambda v: tree.depth[v], reverse=True)
    return order


def build_tree(parents: Sequence[int], labels: Sequence[int]) -> Tree:
    """Validate a parent array and its labels, a permutation of 0..n-1,
    and assemble a Tree.  parents[i] == i (or -1) marks the root."""
    n = len(parents)
    if n < 1:
        raise TreeError("tree needs at least one node")
    parent = []
    for i, p in enumerate(parents):
        p = int(p)
        if p == -1:
            p = i
        if not 0 <= p < n:
            raise UnreachableNode(f"parent {p} of node {i} is not a node id")
        parent.append(p)
    roots = [i for i in range(n) if parent[i] == i]
    if len(roots) > 1:
        raise MultipleRoots(f"self-parented nodes {roots}")
    if not roots:
        raise CycleDetected("no root: every parent chain loops")
    root = roots[0]

    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if i != root:
            children[parent[i]].append(i)

    # BFS from the root over child edges; anything unreached sits on a cycle.
    depth = [-1] * n
    depth[root] = 0
    frontier = [root]
    seen = 1
    while frontier:
        nxt = []
        for v in frontier:
            for c in children[v]:
                depth[c] = depth[v] + 1
                nxt.append(c)
                seen += 1
        frontier = nxt
    if seen != n:
        bad = [i for i in range(n) if depth[i] < 0]
        raise CycleDetected(f"nodes {bad} cannot reach the root")

    lab = [int(x) for x in labels]
    if sorted(lab) != list(range(n)):
        raise LabelsNotBijective(f"labels must be a permutation of 0..{n - 1}")
    inv = [0] * n
    for v, l in enumerate(lab):
        inv[l] = v

    return Tree(
        n=n,
        parent=tuple(parent),
        root=root,
        label=tuple(lab),
        children=tuple(tuple(c) for c in children),
        depth=tuple(depth),
        label_to_node=tuple(inv),
    )


# ---------------------------------------------------------------------------
# generators

def make_path(n: int) -> Tree:
    """Path with the root at one end; node i sits at depth i, labels identity."""
    parents = [max(0, i - 1) for i in range(n)]
    return build_tree(parents, labels=range(n))


def make_star(n: int) -> Tree:
    """Root 0 with n-1 leaves attached directly, labels identity."""
    parents = [0] * n
    return build_tree(parents, labels=range(n))


def make_complete_kary(k: int, depth: int) -> Tree:
    """Complete k-ary tree of the given depth, nodes in BFS order."""
    if k < 1 or depth < 0:
        raise TreeError("need k >= 1 and depth >= 0")
    n = sum(k ** d for d in range(depth + 1))
    parents = [0] + [(i - 1) // k for i in range(1, n)]
    return build_tree(parents, labels=range(n))


def make_caterpillar(spine: int, offsets: Sequence[int]) -> Tree:
    """Spine of the given length hanging toward the root, one leaf per offset.

    Leaves get labels 0..L-1 where L = len(offsets); spine nodes get
    labels L..L+spine-1 ordered deepest to root, so the root carries the
    largest label.  offsets[i] picks the spine position of leaf i counted
    from the deep end.
    """
    if spine < 1:
        raise TreeError("spine must have at least one node")
    L = len(offsets)
    for i, off in enumerate(offsets):
        if not 0 <= off < spine:
            raise InvalidOffset(f"offset {off} of leaf {i} not in [0, {spine})")
    n = L + spine
    # node ids equal labels: leaves 0..L-1, spine L..n-1 (deep to root)
    parents = [0] * n
    for i in range(L):
        parents[i] = L + offsets[i]
    for j in range(spine):
        v = L + j
        parents[v] = v + 1 if j < spine - 1 else v
    return build_tree(parents, labels=range(n))


def make_random_tree(n: int, seed: int) -> Tree:
    """Random recursive tree (node i attaches to a uniform earlier node)."""
    rng = np.random.default_rng(seed)
    parents = [0] * n
    for i in range(2, n):
        parents[i] = int(rng.integers(0, i))
    labels = [int(x) for x in rng.permutation(n)]
    return build_tree(parents, labels=labels)


FAMILIES = ("path", "star", "caterpillar", "kary", "random")


def from_family(family: str, n: int, seed: int = 0) -> Tree:
    """Uniform entry point used by sweeps and the CLI.

    kary is the ternary shape filled level by level and truncated to
    exactly n nodes; caterpillar splits n into a spine of n//2 plus
    leaves at seeded offsets.
    """
    if family not in FAMILIES:
        raise TreeError(f"unknown family {family!r}; pick one of {FAMILIES}")
    if n < 1:
        raise TreeError("n must be positive")
    if n == 1:
        return build_tree([0], labels=[0])
    if family == "path":
        return make_path(n)
    if family == "star":
        return make_star(n)
    if family == "kary":
        parents = [0] + [(i - 1) // 3 for i in range(1, n)]
        return build_tree(parents, labels=range(n))
    if family == "caterpillar":
        spine = n // 2
        L = n - spine
        rng = np.random.default_rng(seed)
        offsets = [int(x) for x in rng.integers(0, spine, size=L)]
        return make_caterpillar(spine, offsets)
    return make_random_tree(n, seed)


# ---------------------------------------------------------------------------
# gamma-heights

@dataclasses.dataclass(frozen=True)
class GammaHeights:
    gamma: int
    heights: tuple[int, ...]


def gamma_heights(tree: Tree, gamma: int) -> GammaHeights:
    """Bottom-up gamma-height of every node; gamma=1 is plain height."""
    if gamma < 1:
        raise TreeError("gamma must be at least 1")
    h = [0] * tree.n
    for v in _nodes_deep_first(tree):
        kids = tree.children[v]
        if not kids:
            h[v] = 0
            continue
        g = max(h[c] for c in kids)
        attained = sum(1 for c in kids if h[c] == g)
        h[v] = g + 1 if attained >= gamma else g
    return GammaHeights(gamma=gamma, heights=tuple(h))


def gamma_depth(tree: Tree, gamma: int) -> int:
    """Gamma-height of the root."""
    return gamma_heights(tree, gamma).heights[tree.root]


def subtree_above(tree: Tree, gamma: int, h: int) -> Tree:
    """Induced subtree of nodes with gamma-height >= h.

    h=0 returns the input tree unchanged.  Otherwise surviving nodes are
    renumbered by ascending original id (so old node correspondence is
    recoverable by sorting the kept ids) and given identity labels.
    """
    if h < 0:
        raise TreeError("h must be nonnegative")
    if h == 0:
        return tree
    heights = gamma_heights(tree, gamma).heights
    keep = [v for v in range(tree.n) if heights[v] >= h]
    if not keep:
        raise EmptyResult(f"no node has {gamma}-height >= {h}")
    new_id = {v: i for i, v in enumerate(keep)}
    parents = []
    for v in keep:
        if v == tree.root:
            parents.append(new_id[v])
        else:
            # heights never decrease toward the root, so the parent survives
            parents.append(new_id[tree.parent[v]])
    return build_tree(parents, labels=range(len(keep)))


# ---------------------------------------------------------------------------
# text serialization: first line n, then n parent entries, then n labels

def save_tree(tree: Tree, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{tree.n}\n")
        for p in tree.parent:
            fh.write(f"{p}\n")
        for l in tree.label:
            fh.write(f"{l}\n")


def load_tree(path: str) -> Tree:
    try:
        with open(path) as fh:
            toks = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise TreeError(f"cannot read tree file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise TreeError(f"{path} is not a text file") from None
    if not toks:
        raise TreeError(f"{path} is empty")
    try:
        nums = [int(t) for t in toks]
    except ValueError as exc:
        raise TreeError(f"{path}: every entry must be an integer ({exc})") from None
    n = nums[0]
    if len(nums) != 1 + 2 * n:
        raise TreeError(f"{path}: expected {1 + 2 * n} entries, found {len(nums)}")
    return build_tree(nums[1:1 + n], labels=nums[1 + n:])


def log_gamma_bound(n: int, gamma: int) -> float:
    """log base gamma of n, the structural depth ceiling for gamma >= 2."""
    return math.log(n) / math.log(gamma)
