"""Tree construction, generators, and gamma-height structure."""
import math

import pytest

from radio_gather import trees
from radio_gather.trees import (
    CycleDetected,
    EmptyResult,
    InvalidOffset,
    LabelsNotBijective,
    MultipleRoots,
    Tree,
    UnreachableNode,
    build_tree,
    from_family,
    gamma_depth,
    gamma_heights,
    load_tree,
    make_caterpillar,
    make_complete_kary,
    make_path,
    make_random_tree,
    make_star,
    save_tree,
    subtree_above,
)


def recursive_height_oracle(tree: Tree, gamma: int) -> list[int]:
    """Direct recursive evaluation of the gamma-height rule, used as the
    independent reference for the iterative implementation."""
    import sys

    sys.setrecursionlimit(10000 + tree.n)
    memo = {}

    def h(v):
        if v in memo:
            return memo[v]
        kids = tree.children[v]
        if not kids:
            memo[v] = 0
            return 0
        vals = [h(c) for c in kids]
        g = max(vals)
        memo[v] = g + 1 if vals.count(g) >= gamma else g
        return memo[v]

    return [h(v) for v in range(tree.n)]


# ---------------------------------------------------------------------------
# construction and validation

def test_single_node():
    t = build_tree([0], labels=[0])
    assert t.n == 1 and t.root == 0 and t.depth == (0,)


def test_minus_one_root_alias():
    t = build_tree([-1, 0, 0], labels=[0, 1, 2])
    assert t.root == 0 and t.children[0] == (1, 2)


def test_star_shape():
    t = build_tree([0, 0, 0], labels=[0, 1, 2])
    assert t.root == 0
    assert t.depth == (0, 1, 1)


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRoots):
        build_tree([0, 1, 0], labels=[0, 1, 2])


def test_two_cycle_rejected():
    # 1 -> 2 -> 1 never reaches the root
    with pytest.raises(CycleDetected):
        build_tree([0, 2, 1, 1, 2], labels=[0, 1, 2, 3, 4])


def test_no_root_rejected():
    with pytest.raises(CycleDetected):
        build_tree([1, 0], labels=[0, 1])


def test_out_of_range_parent():
    with pytest.raises(UnreachableNode):
        build_tree([0, 7], labels=[0, 1])


def test_bad_labels():
    with pytest.raises(LabelsNotBijective):
        build_tree([0, 0], labels=[1, 1])
    with pytest.raises(LabelsNotBijective):
        build_tree([0, 0], labels=[0, 2])


def test_label_lookup_roundtrip():
    t = make_random_tree(40, seed=3)
    for v in range(t.n):
        assert t.node_with_label(t.label[v]) == v


# ---------------------------------------------------------------------------
# generators

def test_path_depths():
    t = make_path(6)
    assert t.depth == (0, 1, 2, 3, 4, 5)
    assert t.root == 0
    assert t.leaves() == [5]


def test_star_leaves():
    t = make_star(9)
    assert len(t.leaves()) == 8
    assert all(t.depth[v] == 1 for v in t.leaves())


def test_complete_kary_sizes():
    t = make_complete_kary(3, 2)
    assert t.n == 1 + 3 + 9
    assert t.depth[-1] == 2
    t2 = make_complete_kary(2, 4)
    assert t2.n == 31


def test_caterpillar_labels_and_root():
    # six spine nodes and six leaves: spine labels 6..11, root labelled 11
    t = make_caterpillar(6, [0, 1, 2, 3, 4, 5])
    assert t.n == 12
    assert t.label[t.root] == 11
    spine_labels = sorted(t.label[v] for v in range(t.n) if t.children[v] or v == t.root)
    assert spine_labels == [6, 7, 8, 9, 10, 11]
    # leaf with offset 0 hangs off the deepest spine node
    deepest_spine = max((v for v in range(t.n) if t.children[v]), key=lambda v: t.depth[v])
    assert t.label[deepest_spine] == 6


def test_caterpillar_bad_offset():
    with pytest.raises(InvalidOffset):
        make_caterpillar(4, [0, 4])


def test_random_tree_reproducible():
    a = make_random_tree(50, seed=11)
    b = make_random_tree(50, seed=11)
    assert a == b
    c = make_random_tree(50, seed=12)
    assert a != c


@pytest.mark.parametrize("family", ["path", "star", "caterpillar", "kary", "random"])
@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_from_family_sizes(family, n):
    t = from_family(family, n, seed=2)
    assert t.n == n


def test_from_family_unknown():
    with pytest.raises(trees.TreeError):
        from_family("ring", 8)


# ---------------------------------------------------------------------------
# gamma heights

def test_path_heights_gamma2_all_zero():
    t = make_path(10)
    assert set(gamma_heights(t, 2).heights) == {0}


def test_star_height_gamma2():
    # a root with five leaves has 2-height 1
    t = make_star(6)
    h = gamma_heights(t, 2).heights
    assert h[t.root] == 1
    assert all(h[v] == 0 for v in t.leaves())


def test_complete_binary_heights():
    t = make_complete_kary(2, 4)
    h = gamma_heights(t, 2).heights
    assert h[t.root] == 4
    assert gamma_depth(t, 2) == 4


def test_gamma1_is_plain_height():
    t = make_random_tree(60, seed=4)
    h = gamma_heights(t, 1).heights
    # plain height: longest downward path length
    expect = [0] * t.n
    for v in sorted(range(t.n), key=lambda v: t.depth[v], reverse=True):
        if t.children[v]:
            expect[v] = 1 + max(expect[c] for c in t.children[v])
    assert list(h) == expect


def test_gamma_bounds_checked():
    t = make_path(4)
    with pytest.raises(trees.TreeError):
        gamma_heights(t, 0)
    # gamma above every branching factor degenerates to all-zero heights
    assert set(gamma_heights(t, 5).heights) == {0}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("gamma", [2, 3, 4])
def test_iterative_matches_recursive_oracle(seed, gamma):
    t = make_random_tree(120, seed=seed)
    assert list(gamma_heights(t, gamma).heights) == recursive_height_oracle(t, gamma)


@pytest.mark.parametrize("gamma", [2, 3])
def test_subtree_size_lower_bound(gamma):
    # every node's subtree holds at least gamma**height nodes
    for seed in range(6):
        t = make_random_tree(200, seed=seed)
        h = gamma_heights(t, gamma).heights
        size = t.subtree_sizes()
        for v in range(t.n):
            assert size[v] >= gamma ** h[v]


def test_depth_ceiling():
    for seed in range(6):
        t = make_random_tree(300, seed=100 + seed)
        for gamma in (2, 3, 4):
            assert gamma_depth(t, gamma) <= trees.log_gamma_bound(t.n, gamma)


# ---------------------------------------------------------------------------
# induced subtrees

def test_subtree_above_h0_is_identity():
    t = make_random_tree(30, seed=9)
    assert subtree_above(t, 2, 0) is t


def test_subtree_above_heights_shift():
    for seed in range(5):
        t = make_random_tree(150, seed=20 + seed)
        for gamma in (2, 3):
            d = gamma_depth(t, gamma)
            h_orig = gamma_heights(t, gamma).heights
            for h in range(1, d + 1):
                sub = subtree_above(t, gamma, h)
                kept = sorted(v for v in range(t.n) if h_orig[v] >= h)
                assert sub.n == len(kept)
                h_sub = gamma_heights(sub, gamma).heights
                for new, old in enumerate(kept):
                    assert h_sub[new] == h_orig[old] - h


def test_subtree_above_empty():
    t = make_path(5)
    with pytest.raises(EmptyResult):
        subtree_above(t, 2, 1)


# ---------------------------------------------------------------------------
# serialization

def test_save_load_roundtrip(tmp_path):
    t = make_random_tree(25, seed=7)
    p = tmp_path / "tree.txt"
    save_tree(t, str(p))
    u = load_tree(str(p))
    assert u == t


def test_load_rejects_truncated(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n0\n0\n")
    with pytest.raises(trees.TreeError):
        load_tree(str(p))


@pytest.mark.parametrize("call, message", [
    (lambda tmp: build_tree([], []), "tree needs at least one node"),
    (lambda tmp: make_complete_kary(0, 2), "need k >= 1 and depth >= 0"),
    (lambda tmp: make_complete_kary(2, -1), "need k >= 1 and depth >= 0"),
    (lambda tmp: make_caterpillar(0, []), "spine must have at least one node"),
    (lambda tmp: subtree_above(make_path(3), 2, -1), "h must be nonnegative"),
    (lambda tmp: load_tree(str(tmp / "blank")), "blank is empty"),
], ids=["no nodes", "k 0", "depth -1", "no spine", "h -1", "blank file"])
def test_refusals(tmp_path, call, message):
    (tmp_path / "blank").write_text("\n  \n")
    with pytest.raises(trees.TreeError, match=f"{message}$"):
        call(tmp_path)
