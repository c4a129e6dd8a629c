"""Graph combinatorics checked against brute-force graph truth.

Box boundaries computed by the height criterion are compared with actual
BFS reachability of the complement; counting identities are verified on
fully materialized vertex sets wherever they fit in memory.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import json
import random
import sys
from array import array
from fractions import Fraction
from functools import lru_cache

import pytest

from dllab import cli, dlgraph, qilab
from dllab.qilab import make_tiling
from dllab.dlgraph import (
    BallGraph,
    Box,
    DEFAULT_DISTANCE_CAP,
    BudgetError,
    DLVertex,
    GraphParams,
    HeightCube,
    RegionAlignmentError,
    ball,
    base_vertex,
    box_boundary_size,
    box_fiber_size,
    box_graph,
    box_members,
    box_size,
    canonical_box,
    cube_boundary,
    cube_contains,
    cube_points,
    cube_size,
    dl_distance,
    dl_key,
    dl_neighbors,
    dl_vertex,
    dot_chunks,
    edge_pairs,
    expected_degree,
    fiber_pools,
    graph_params,
    height_cube,
    json_chunks,
    meet_level,
    rho,
    sphere_sizes,
    tree_ancestor,
    tree_children,
    tree_descendants,
    tree_key,
    tree_parent,
    tree_root,
    tree_vertex,
)

from oracles import (
    box_containing,
    box_contains,
    dl_adjacent,
    export_dot_by_lines,
    export_json_by_dumps,
    is_tree_ancestor,
    tile_box,
    vertex_distance,
)


def graph_vertices(g):
    """g's vertices as DLVertexes: BallGraph.vertices holds coordinate tuples."""
    return [DLVertex(g.params, c) for c in g.vertices]


def fiber(params, box, point):
    """The members over a cube point: the product of its pools."""
    pools = fiber_pools(params, box, point)
    return [dl_vertex(params, coords) for coords in itertools.product(*pools)]


def brute_boundary_keys(params, box, r):
    """Graph truth: members from which BFS of depth r escapes the box."""
    out = set()
    for x in box_members(params, box):
        frontier = [x]
        seen = {dl_key(x)}
        escaped = False
        for _ in range(r):
            nxt = []
            for v in frontier:
                for w in dl_neighbors(v):
                    kw = dl_key(w)
                    if kw in seen:
                        continue
                    seen.add(kw)
                    if not box_contains(params, box, w):
                        escaped = True
                    nxt.append(w)
            if escaped:
                break
            frontier = nxt
        if escaped:
            out.add(dl_key(x))
    return out


# ---------------------------------------------------------------------------
# trees


def test_tree_mechanics():
    root = tree_root(0)
    kids = tree_children(root, 3)
    assert len(kids) == 3 and len(set(kids)) == 3
    for child in kids:
        assert child.level == 1
        assert tree_parent(child) == root
    v = tree_vertex(2, [(1, 1), (2, 2)], q=3)
    assert tree_ancestor(v, 1) == tree_vertex(1, [(1, 1)])
    assert tree_ancestor(v, -2) == tree_root(-2)
    assert is_tree_ancestor(tree_root(-2), v)
    assert not is_tree_ancestor(tree_vertex(1, [(1, 2)]), v)
    assert tree_key(v) == "2:1=1,2=2"


def test_tree_descendants_exhaustive():
    root = tree_root(0)
    down3 = list(tree_descendants(root, 3, 3))
    assert len(down3) == 27 and len(set(down3)) == 27
    for w in down3:
        assert w.level == 3
        assert tree_ancestor(w, 0) == root
    # digit order: the digit just below v varies slowest, zeros omitted
    for v in (root, tree_vertex(-2, [(-4, 1), (-2, 2)])):
        for q, depth in ((2, 0), (2, 4), (3, 3)):
            assert list(tree_descendants(v, depth, q)) == [
                tree_vertex(v.level + depth, v.digits + tuple(
                    (v.level + 1 + t, b) for t, b in enumerate(combo) if b
                ))
                for combo in itertools.product(range(q), repeat=depth)
            ]


def test_tree_vertex_validation():
    with pytest.raises(ValueError):
        tree_vertex(0, [(1, 1)])  # index above height
    with pytest.raises(ValueError):
        tree_vertex(2, [(1, 0)])  # explicit zero digit
    with pytest.raises(ValueError):
        tree_vertex(2, [(1, 2)], q=2)  # digit out of range
    with pytest.raises(ValueError):
        tree_vertex(2, [(1, 1), (1, 1)])  # duplicate index


def test_meet_level():
    a = tree_vertex(3, [(1, 1), (3, 1)])
    b = tree_vertex(2, [(1, 1), (2, 1)])
    assert meet_level(a, b) == 1
    assert meet_level(a, a) == 3
    assert meet_level(tree_root(5), tree_root(-2)) == -2
    c = tree_vertex(3, [(1, 1)])
    assert meet_level(a, c) == 2  # digits agree up to height 2


# ---------------------------------------------------------------------------
# integer arguments


def test_graph_params_refuses_bool_and_non_int_arguments():
    # a bool is an int to isinstance, so k=True once made GraphParams(k=True)
    for args, name in (((2, 2, True), "k"), ((2, 2, 2.0), "k"), ((2, True), "q"),
                       ((2, 2.0), "q"), ((True, 2), "d"), ((2.0, 2), "d")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            graph_params(*args)


def test_ball_refuses_bool_and_non_int_radius():
    # ball(center, True) once listed the radius-1 ball
    center = base_vertex(graph_params(2, 2))
    for radius in (True, False, 1.0, "1", -1):
        with pytest.raises(ValueError, match=f"^radius must be a nonnegative integer, got {radius!r}$"):
            ball(center, radius)
        with pytest.raises(ValueError, match="^radius must be a nonnegative integer"):
            dlgraph._ball_search(center, radius, None)


# ---------------------------------------------------------------------------
# vertices and adjacency


def test_vertex_validation():
    p = graph_params(2, 2)
    base = base_vertex(p)
    assert [c.level for c in base.coords] == [0, 0]
    assert rho(base) == (0,)
    with pytest.raises(ValueError):
        dl_vertex(p, (tree_root(1), tree_root(0)))  # heights sum to 1
    with pytest.raises(ValueError):
        dl_vertex(p, (tree_root(0),))  # wrong arity
    with pytest.raises(ValueError):
        dl_vertex(p, (tree_vertex(1, [(1, 3)]), tree_root(-1)))  # digit >= q
    pk = graph_params(2, 2, 2)
    with pytest.raises(ValueError):
        dl_vertex(pk, (tree_root(1), tree_root(-1)))  # height not in 2Z
    assert dl_vertex(pk, (tree_root(2), tree_root(-2))).params.k == 2


@pytest.mark.parametrize(
    "d,q,k",
    [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2)],
)
def test_degree_and_adjacency(d, q, k):
    p = graph_params(d, q, k)
    base = base_vertex(p)
    nbrs = dl_neighbors(base)
    assert len(nbrs) == expected_degree(p)
    assert len({dl_key(w) for w in nbrs}) == len(nbrs)
    for w in nbrs:
        assert sum(c.level for c in w.coords) == 0
        assert w.coords[0].level % k == 0
        assert dl_adjacent(base, w)
        assert dl_adjacent(w, base)
    assert not dl_adjacent(base, base)


@pytest.mark.parametrize("d,q,k", [(2, 2, 1), (3, 2, 1), (2, 2, 2)])
def test_degree_constant_on_ball(d, q, k):
    p = graph_params(d, q, k)
    g = ball(base_vertex(p), 2)
    for v in graph_vertices(g):
        assert len(dl_neighbors(v)) == expected_degree(p)


@pytest.mark.parametrize("d,q,k", [(2, 2, 1), (3, 2, 1), (2, 2, 2)])
def test_adjacency_matches_neighbor_sets(d, q, k):
    p = graph_params(d, q, k)
    g = ball(base_vertex(p), 2)
    rng = random.Random(50 + 10 * d + k)
    verts = graph_vertices(g)
    for _ in range(60):
        u = rng.choice(verts)
        v = rng.choice(verts)
        in_nbrs = dl_key(v) in {dl_key(w) for w in dl_neighbors(u)}
        assert dl_adjacent(u, v) == in_nbrs


def test_ball_examples(monkeypatch):
    p = graph_params(2, 2)
    g0 = ball(base_vertex(p), 0)
    assert len(g0.vertices) == 1 and list(edge_pairs(g0)) == []
    g1 = ball(base_vertex(p), 1)
    assert len(g1.vertices) == 5
    assert list(edge_pairs(g1)) == [(0, 2), (1, 2), (2, 3), (2, 4)]
    assert sphere_sizes(g1) == (1, 4)
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"budget 10: 11 vertices reached at depth 2"):
        ball(base_vertex(p), 3)


def test_lamplighter_spheres_are_the_growth_series():
    # DL_2(2) is the Cayley graph of the lamplighter group Z_2 wr Z, whose
    # spheres are its growth series (Parry, "Growth series of some wreath
    # products", Trans. AMS 1992)
    g = ball(base_vertex(graph_params(2, 2)), 12)
    assert sphere_sizes(g) == (1, 4, 10, 24, 53, 116, 244, 512, 1052, 2160, 4384, 8896, 17936)


def test_ball_budget_checked_before_any_pool(monkeypatch):
    # the signature-state search counts each state as the vertices it
    # stands for, so an over-budget ball is refused before any pool is
    # built, naming the first depth whose ball exceeds the budget, as a
    # vertex BFS would
    def refuse(*args, **kwargs):
        raise AssertionError("a signature pool was built")

    monkeypatch.setattr(dlgraph, "_signature_pools", refuse)
    center = base_vertex(graph_params(2, 2))
    with pytest.raises(BudgetError, match=r"^ball of radius 16 exceeds budget 500000: 500001 vertices reached at depth 16$"):
        ball(center, 16)
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"^ball of radius 3 exceeds budget 10: 11 vertices reached at depth 2$"):
        ball(center, 3)
    # the radius-2 ball holds 15 vertices, so a budget of 15 lists it
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 15)
    with pytest.raises(BudgetError, match=r"^ball of radius 3 exceeds budget 15: 16 vertices reached at depth 3$"):
        ball(center, 3)
    monkeypatch.undo()
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 15)
    assert sphere_sizes(ball(center, 2)) == (1, 4, 10)


@pytest.mark.parametrize("d,q,radius", [(2, 2, 4), (2, 3, 3), (3, 2, 3)])
def test_vertex_transitive_sphere_sizes(d, q, radius):
    p = graph_params(d, q)
    pool = graph_vertices(ball(base_vertex(p), 2))
    rng = random.Random(60 + d * 10 + q)
    centers = [base_vertex(p)] + [rng.choice(pool) for _ in range(2)]
    profiles = {sphere_sizes(ball(c, radius)) for c in centers}
    assert len(profiles) == 1


# ---------------------------------------------------------------------------
# cubes


def test_cube_basics():
    c = height_cube([(0, 4)])
    assert cube_points(c) == [(0,), (1,), (2,), (3,), (4,)]
    assert cube_size(c) == 5
    assert cube_contains(c, (3,))
    assert not cube_contains(c, (5,))
    c2 = height_cube([(0, 4)], k=2)
    assert cube_points(c2) == [(0,), (2,), (4,)]
    assert cube_size(c2) == 3
    assert not cube_contains(c2, (1,))
    with pytest.raises(ValueError):
        height_cube([(0, 2), (0, 3)])
    with pytest.raises(ValueError):
        height_cube([(1, 3)], k=2)


def test_cube_points_checked_against_the_vertex_budget(monkeypatch):
    # the count is cube_size's closed form, so an oversized cube lists no point
    def refuse(*args, **kwargs):
        raise AssertionError("the cube was listed")

    p = graph_params(4, 2)
    cube = height_cube([(0, 100)] * 3)
    with monkeypatch.context() as mp:
        mp.setattr(dlgraph, "product", refuse)
        for lister in (lambda: cube_points(cube), lambda: cube_boundary(p, cube, 1)):
            with pytest.raises(BudgetError, match=r"^cube has 1030301 points, budget 500000$"):
                lister()
    # the first axis of an index-2 cube steps by 2: 3 x 5 points
    cube = height_cube([(0, 4), (0, 4)], k=2)
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 15)
    assert len(cube_points(cube)) == 15
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 14)
    with pytest.raises(BudgetError, match=r"^cube has 15 points, budget 14$"):
        cube_points(cube)


@pytest.mark.parametrize(
    "intervals,k",
    [([(0, 4)], 2), ([(-2, 4), (1, 7)], 2), ([(-3, 3), (0, 6)], 3), ([(3, 3), (0, 0), (5, 5)], 1)],
)
def test_cube_membership_is_its_point_list(intervals, k):
    # cube_points, cube_size and cube_contains read one set of axes: on a
    # grid two steps wider than the cube, the points it contains are its
    # point list, in order
    cube = height_cube(intervals, k)
    points = cube_points(cube)
    assert cube_size(cube) == len(points) == len(set(points))
    grid = itertools.product(*(range(a - 2, b + 3) for a, b in intervals))
    assert [x for x in grid if cube_contains(cube, x)] == points
    assert not cube_contains(cube, points[0] + (0,))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_edge_moves_each_tracked_height_at_most_k(d, k):
    # the lemma behind cube_boundary's closed form: the largest height
    # change of one edge is exactly k on every tracked axis
    base = base_vertex(graph_params(d, 2, k))
    steps = [rho(w) for w in dl_neighbors(base)]
    assert [max(abs(s[i]) for s in steps) for i in range(d - 1)] == [k] * (d - 1)


def test_cube_boundary_examples():
    p2 = graph_params(2, 2)
    c = height_cube([(0, 4)])
    assert cube_boundary(p2, c, 0) == []
    assert cube_boundary(p2, c, 1) == [(0,), (4,)]
    assert cube_boundary(p2, c, 2) == [(0,), (1,), (3,), (4,)]
    p3 = graph_params(3, 2)
    c3 = height_cube([(0, 2), (0, 2)])
    b1 = cube_boundary(p3, c3, 1)
    assert len(b1) == 8 and (1, 1) not in b1
    with pytest.raises(ValueError, match="cube alignment 1 does not match graph k=2"):
        cube_boundary(graph_params(2, 2, 2), c, 1)
    with pytest.raises(ValueError, match="cube has 1 axes, need 2"):
        cube_boundary(p3, c, 1)


# ---------------------------------------------------------------------------
# boxes


COUNTING_CASES = [
    (2, 2, 1, 2),
    (2, 2, 1, 4),
    (3, 2, 1, 2),
    (3, 3, 1, 2),
    (3, 2, 2, 2),
    (2, 2, 2, 4),
]


@pytest.mark.parametrize("d,q,k,h", COUNTING_CASES)
def test_counting_identity(d, q, k, h):
    p = graph_params(d, q, k)
    cube = height_cube([(0, h)] * (d - 1), k=k)
    box = canonical_box(p, cube)
    expected_fiber = q ** ((d - 1) * h)
    seen = set()
    for point in cube_points(cube):
        fiber_members = fiber(p, box, point)
        assert len(fiber_members) == expected_fiber
        assert box_fiber_size(p, box, point) == expected_fiber
        for v in fiber_members:
            assert rho(v) == point
            assert box_contains(p, box, v)
            seen.add(dl_key(v))
    assert box_size(p, box) == cube_size(cube) * expected_fiber
    assert len(seen) == box_size(p, box)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_box_size_is_per_point_sum(d, q, k):
    # box_size is a closed form; the fibers, summed point by point, are its oracle
    p = graph_params(d, q, k)
    for side in range(0, 4 * k + 1, k):  # the first axis is aligned to kZ
        for corner in (0, -k, 2 * k):
            cube = height_cube(
                [(corner, corner + side)] + [(corner + t, corner + t + side) for t in range(1, d - 1)],
                k,
            )
            canon = canonical_box(p, cube)
            lifted = Box(cube, tuple(tree_vertex(r.level, [(r.level, 1)]) for r in canon.roots))
            for box in (canon, lifted):
                per_point = sum(box_fiber_size(p, box, pt) for pt in cube_points(cube))
                assert box_size(p, box) == per_point, (side, corner)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_sorted_box_member_keys(d, q, k):
    # keys are built per fiber from the pools' keys; they must be dl_key's,
    # in strictly increasing order, on canonical and lifted boxes alike, and
    # order, pos and offsets must map key order to box_members' build order
    p = graph_params(d, q, k)
    for side in (0, k, 2 * k):
        for corner in (0, -k):
            cube = height_cube([(corner, corner + side)] * (d - 1), k)
            canon = canonical_box(p, cube)
            if box_size(p, canon) > 5000:
                continue  # d=3, q=3, side 4 has 98,415 members; the rest stay small
            lifted = Box(cube, tuple(tree_vertex(r.level, [(r.level, 1)]) for r in canon.roots))
            for box in (canon, lifted):
                listing = dlgraph._box_listing(p, box)
                keys, offsets, order, pos, _ = listing
                members = dlgraph._listed_members(box, listing)
                assert keys == tuple(dl_key(DLVertex(p, c)) for c in members)
                assert all(a < b for a, b in zip(keys, keys[1:]))
                built = list(box_members(p, box))
                assert members == tuple(built[i].coords for i in order)
                assert [pos[i] for i in order] == list(range(len(built)))
                first = {}
                for i, x in enumerate(built):
                    first.setdefault(rho(x), i)
                assert offsets == first


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pool_table_matches_tree_descendants(d, q, k):
    # every pool a box's fibers read, each depth built from the one above,
    # against tree_descendants and tree_key, on canonical and lifted boxes
    p = graph_params(d, q, k)
    checked = 0
    for side in (0, k, 2 * k):
        cube = height_cube([(0, side)] * (d - 1), k)
        canon = canonical_box(p, cube)
        lifted = Box(cube, tuple(tree_vertex(r.level, [(r.level, 1)]) for r in canon.roots))
        for box in (canon, lifted):
            pools = {at for pt in cube_points(cube) for at in enumerate(dlgraph._fiber_depths(box, pt))}
            # deepest first on one table, so each depth is first built while
            # reading the one below it, and shallowest first on the other
            for table, ats in ((dlgraph._pool_table(p, box), sorted(pools, key=lambda at: -at[1])),
                               (dlgraph._pool_table(p, box), sorted(pools))):
                for i, depth in ats:
                    if q**depth > 5000:
                        continue  # only the deepest pools of d = 4 at side 2k
                    want = list(tree_descendants(box.roots[i], depth, q))
                    assert list(table.vertices[i, depth]) == want, (i, depth)
                    assert list(table.keys[i, depth]) == list(map(tree_key, want)), (i, depth)
                    checked += 1
    assert checked >= 20


def test_box_example_small():
    p = graph_params(2, 2)
    cube = height_cube([(0, 2)])
    box = canonical_box(p, cube)
    assert box_size(p, box) == 12
    assert box_fiber_size(p, box, (1,)) == 4


def test_box_containing_consistency():
    p = graph_params(2, 2)
    cube = height_cube([(0, 2)])
    box = canonical_box(p, cube)
    for x in box_members(p, box):
        assert box_containing(p, cube, x) == box
    outside = dl_vertex(p, (tree_root(5), tree_root(-5)))
    with pytest.raises(ValueError):
        box_containing(p, cube, outside)


@pytest.mark.parametrize(
    "d,q,k,h,r",
    [(2, 2, 1, 2, 1), (2, 2, 1, 2, 2), (2, 2, 1, 4, 1), (3, 2, 1, 2, 1), (2, 2, 2, 2, 1)],
)
def test_box_boundary_matches_graph_truth(d, q, k, h, r):
    p = graph_params(d, q, k)
    cube = height_cube([(0, h)] * (d - 1), k=k)
    box = canonical_box(p, cube)
    claimed = {dl_key(v) for point in cube_boundary(p, cube, r) for v in fiber(p, box, point)}
    assert claimed == brute_boundary_keys(p, box, r)
    assert len(claimed) == box_boundary_size(p, box, r)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_folner_ratio_identity_and_decay(d, r):
    q = 2
    p = graph_params(d, q)
    ratios = []
    for h in (2, 4, 6):
        cube = height_cube([(0, h)] * (d - 1))
        box = canonical_box(p, cube)
        ratio = Fraction(box_boundary_size(p, box, r), box_size(p, box))
        lattice = Fraction(len(cube_boundary(p, cube, r)), cube_size(cube))
        assert ratio == lattice
        ratios.append(ratio)
    assert ratios[0] > ratios[1] > ratios[2]


def test_folner_example_values():
    p = graph_params(2, 2)
    cube = height_cube([(0, 4)])
    box = canonical_box(p, cube)
    assert box_boundary_size(p, box, 1) == 32
    assert Fraction(box_boundary_size(p, box, 1), box_size(p, box)) == Fraction(2, 5)


def refuse_listing(*args, **kwargs):
    raise AssertionError("a cube was listed")


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_box_boundary_size_is_the_listed_sum(monkeypatch, d, q, k):
    # box_boundary_size is a closed form that lists no cube point; the
    # fibers over cube_boundary's points, summed point by point, are its
    # oracle, with r running from 0 until the interior is long empty
    p = graph_params(d, q, k)
    for side in range(0, 4 * k + 1, k):  # the first axis is aligned to kZ
        for corner in (0, -k, 2 * k):
            cube = height_cube(
                [(corner, corner + side)] + [(corner + t, corner + t + side) for t in range(1, d - 1)],
                k,
            )
            canon = canonical_box(p, cube)
            lifted = Box(cube, tuple(tree_vertex(r.level, [(r.level, 1)]) for r in canon.roots))
            cases = [(box, r) for box in (canon, lifted) for r in range(side + 3)]
            listed = [
                sum(box_fiber_size(p, box, pt) for pt in cube_boundary(p, cube, r))
                for box, r in cases
            ]
            with monkeypatch.context() as mp:
                mp.setattr(dlgraph, "cube_points", refuse_listing)
                mp.setattr(dlgraph, "cube_boundary", refuse_listing)
                closed = [box_boundary_size(p, box, r) for box, r in cases]
            assert closed == listed, (side, corner)


def test_box_boundary_size_lists_no_cube_point(monkeypatch):
    # the Folner suite's largest CI box, and a chain scan, with every cube
    # lister in dlgraph and qilab patched to fail: the chain sum is a
    # convolution over the cube axes and lists no cube point either
    monkeypatch.setattr(dlgraph, "cube_points", refuse_listing)
    monkeypatch.setattr(dlgraph, "cube_boundary", refuse_listing)
    monkeypatch.setattr(qilab, "cube_points", refuse_listing, raising=False)
    p = graph_params(4, 2)
    box = dlgraph.side_box(p, 78)
    assert Fraction(box_boundary_size(p, box, 1), box_size(p, box)) == Fraction(36506, 493039)
    with pytest.raises(ValueError, match="r must be nonnegative"):
        box_boundary_size(p, box, -1)
    with pytest.raises(ValueError, match="cube alignment 1 does not match graph k=2"):
        box_boundary_size(graph_params(4, 2, 2), box, 1)
    imap = qilab.interior_map(p, [qilab.shift_map(2, 1)] + [qilab.identity_map(2)] * 3)
    [record] = qilab.uf_chain_scan(imap, 2, [6], r=2)
    assert record.boundary_size == (7**3 - 3**3) * 2 ** 18


def test_box_from_another_k_is_refused():
    # a k = 1 box once gave 12 members with first heights {0, 1, 2} to the
    # k = 2 graph, which holds 8 over the same side
    p2 = graph_params(2, 2, 2)
    box = dlgraph.side_box(graph_params(2, 2, 1), 2)
    assert box_size(p2, dlgraph.side_box(p2, 2)) == 8
    for run in (lambda: box_size(p2, box), lambda: list(box_members(p2, box)),
                lambda: box_graph(p2, box), lambda: dlgraph._box_listing(p2, box),
                lambda: box_boundary_size(p2, box, 1)):
        with pytest.raises(ValueError, match="^cube alignment 1 does not match graph k=2$"):
            run()


def test_box_from_another_d_is_refused():
    # a d = 2 box once raised IndexError in the d = 3 box graph
    p3 = graph_params(3, 2)
    box = dlgraph.side_box(graph_params(2, 2), 2)
    for run in (lambda: box_size(p3, box), lambda: list(box_members(p3, box)),
                lambda: box_graph(p3, box), lambda: dlgraph._box_listing(p3, box)):
        with pytest.raises(ValueError, match="^cube has 1 axes, need 2$"):
            run()
    # a box whose cube fits but whose roots do not
    p = graph_params(2, 2)
    good = dlgraph.side_box(p, 2)
    bad = Box(good.cube, good.roots + (tree_root(0),))
    for run in (lambda: box_size(p, bad), lambda: list(box_members(p, bad)), lambda: box_graph(p, bad)):
        with pytest.raises(ValueError, match="^box has 3 roots, need 2$"):
            run()


def test_side_box_is_the_canonical_box_over_the_side():
    for d, k, h in [(2, 1, 0), (3, 2, 4), (4, 3, 6)]:
        p = graph_params(d, 2, k)
        box = dlgraph.side_box(p, h)
        assert box == canonical_box(p, height_cube([(0, h)] * (d - 1), k))
    with pytest.raises(ValueError, match=r"first axis \[0, 3\] must be aligned to 2Z"):
        dlgraph.side_box(graph_params(3, 2, 2), 3)


# ---------------------------------------------------------------------------
# tiling


@pytest.mark.parametrize("d,side_points,h", [(2, 4, 2), (2, 6, 3), (3, 4, 2)])
def test_tile_partitions_ambient(d, side_points, h):
    q = 2
    p = graph_params(d, q)
    region = height_cube([(0, side_points - 1)] * (d - 1))
    tiling = make_tiling(p, region, h)
    ambient = canonical_box(p, region)
    assert tiling.ambient == ambient
    members = list(box_members(p, ambient))
    tiles = {tile_box(tiling, v) for v in members}
    assert len(tiles) > 1
    for v in members:
        # each member lies in exactly one tile box: the one it reports
        assert [t for t in tiles if box_contains(p, t, v)] == [tile_box(tiling, v)]
    assert sum(box_size(p, t) for t in tiles) == box_size(p, ambient)


def test_tile_alignment_errors():
    p = graph_params(2, 2)
    with pytest.raises(RegionAlignmentError):
        make_tiling(p, height_cube([(0, 2)]), 2)  # 3 points, not divisible by 2
    with pytest.raises(RegionAlignmentError):
        make_tiling(p, height_cube([(1, 4)]), 2)  # origin not on the grid
    with pytest.raises(ValueError):
        make_tiling(graph_params(2, 2, 2), height_cube([(0, 3)], k=2), 2)


# ---------------------------------------------------------------------------
# exports


EXPECTED_DOT = """graph dl {
  "-1:|1:" [heights="-1,1"];
  "-1:|1:1=1" [heights="-1,1"];
  "0:|0:" [heights="0,0"];
  "1:1=1|-1:" [heights="1,-1"];
  "1:|-1:" [heights="1,-1"];
  "-1:|1:" -- "0:|0:";
  "-1:|1:1=1" -- "0:|0:";
  "0:|0:" -- "1:1=1|-1:";
  "0:|0:" -- "1:|-1:";
}
"""


def test_export_dot_golden():
    g = ball(base_vertex(graph_params(2, 2)), 1)
    assert "".join(dot_chunks(g)) == EXPECTED_DOT
    assert "".join(dot_chunks(g)) == "".join(dot_chunks(g))


def test_export_json_shape_and_determinism():
    g = ball(base_vertex(graph_params(2, 2)), 1)
    blob = "".join(json_chunks(g))
    assert blob == "".join(json_chunks(g))
    data = json.loads(blob)
    assert data["params"] == {"d": 2, "q": 2, "k": 1}
    assert data["radius"] == 1
    assert len(data["vertices"]) == 5
    assert len(data["edges"]) == 4
    keys = [v["key"] for v in data["vertices"]]
    assert keys == sorted(keys)
    for i, j in data["edges"]:
        assert 0 <= i < j < 5
    for v in data["vertices"]:
        assert sum(v["heights"]) == 0


# ---------------------------------------------------------------------------
# ball and box builders against string-keyed references

ORACLE_PARAMS = [(d, q, k) for d in (2, 3) for q in (2, 3) for k in (1, 2, 3)]
ORACLE_MAX_VERTICES = 600  # the all-pairs edge check is quadratic


def reference_ball(center, radius):
    """BFS over dl_key strings: the ball's keys, vertices and depths in key order."""
    depth_by_key = {dl_key(center): 0}
    by_key = {dl_key(center): center}
    frontier = [center]
    for depth in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in dl_neighbors(v):
                kw = dl_key(w)
                if kw not in by_key:
                    by_key[kw] = w
                    depth_by_key[kw] = depth
                    nxt.append(w)
        frontier = nxt
    keys = tuple(sorted(by_key))
    return keys, tuple(by_key[kk] for kk in keys), tuple(depth_by_key[kk] for kk in keys)


def reference_edges(vertices):
    """Every (i, j), i < j, whose vertices dl_adjacent joins.

    Only pairs whose tracked heights differ by one move's height change
    can be joined, so dl_adjacent is asked about those alone. The changes
    are the tracked heights of the base vertex's neighbours, since the base
    vertex sits at height zero.
    """
    steps = {rho(w) for w in dl_neighbors(base_vertex(vertices[0].params))}
    by_height = {}
    for i, v in enumerate(vertices):
        by_height.setdefault(rho(v), []).append(i)
    edges = []
    for i, v in enumerate(vertices):
        x = rho(v)
        for s in steps:
            for j in by_height.get(tuple(a + b for a, b in zip(x, s)), ()):
                if i < j and dl_adjacent(v, vertices[j]):
                    edges.append((i, j))
    return tuple(sorted(edges))


def assert_same_graph(g, ref):
    """g against ref, a BallGraph whose edges are reference_edges' pairs.

    g's edges are read through the decoder (edge_pairs); ref is then
    encoded (_edge_array, as one group at the one place 0, 0) to compare
    the whole records and their exports.
    """
    assert g.keys == ref.keys
    assert g.vertices == ref.vertices
    assert g.depths == ref.depths
    assert tuple(edge_pairs(g)) == ref.edges
    n = len(ref.keys)
    ref = ref._replace(edges=dlgraph._edge_array(n, range(n), [(ref.edges, [0, 0])]))
    assert tuple(edge_pairs(ref)) == tuple(edge_pairs(g))
    assert g == ref
    assert "".join(dot_chunks(g)) == "".join(dot_chunks(ref)) == export_dot_by_lines(ref)
    assert "".join(json_chunks(g)) == "".join(json_chunks(ref)) == export_json_by_dumps(ref)


@pytest.mark.parametrize("d,q,k", ORACLE_PARAMS)
def test_exports_match_the_oracle_writers(d, q, k):
    # the direct text writers against a line per vertex and a json.dumps
    # over a dict tree, byte for byte, on balls of radius 0..2 and boxes of
    # side 0, k and 2k (the first axis steps by k) up to 6000 members;
    # radius 0 and side 0 are the one-vertex graphs, which have no edges
    p = graph_params(d, q, k)
    graphs = [ball(base_vertex(p), r) for r in (0, 1, 2)]
    boxes = [dlgraph.side_box(p, m * k) for m in (0, 1, 2)]
    graphs += [box_graph(p, box) for box in boxes if box_size(p, box) <= 6000]
    assert len(graphs) >= 5
    assert [len(g.vertices) for g in graphs[::3]] == [1, 1]
    assert [len(g.edges) for g in graphs[::3]] == [0, 0]
    for g in graphs:
        assert "".join(dot_chunks(g)) == export_dot_by_lines(g)
        assert "".join(json_chunks(g)) == export_json_by_dumps(g)


def sha(text):
    """A digest to compare payloads by: a failed comparison of two long
    one-line JSON strings would make pytest diff them character by character."""
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_graphs(p, most=600):
    """Balls of radius 0..2 and boxes of side 0, k and 2k with at most `most` vertices.

    Radius 0 and side 0 are the one-vertex graphs, which have no edges. A
    ball is built under a vertex budget of `most`, so a larger one stops early.
    """
    graphs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", most)
        for r in (0, 1, 2):
            with contextlib.suppress(BudgetError):
                graphs.append(ball(base_vertex(p), r))
    boxes = [dlgraph.side_box(p, m * p.k) for m in (0, 1, 2)]
    return graphs + [box_graph(p, box) for box in boxes if box_size(p, box) <= most]


@pytest.mark.parametrize("d,q,k", ORACLE_PARAMS)
def test_edges_are_one_int_each(d, q, k):
    # BallGraph.edges holds 8 bytes per item and one item per edge, with no
    # spare room, and the decoder reads back reference_edges' pairs
    for g in oracle_graphs(graph_params(d, q, k)):
        pairs = tuple(edge_pairs(g))
        assert pairs == reference_edges(graph_vertices(g))
        assert type(g.edges) is array and g.edges.typecode == "q" and g.edges.itemsize == 8
        assert len(g.edges) == len(pairs)
        assert sys.getsizeof(g.edges) == sys.getsizeof(array("q")) + 8 * len(pairs)


def test_edge_codes_round_trip():
    # the encoder maps ids to key positions, orders each pair and sorts the
    # edges; the decoder gives the key-position pairs back
    rng = random.Random(0)
    for n in (1, 2, 3, 17, 500):
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)} if n > 1 else set()
        ids = list(range(n))
        rng.shuffle(ids)  # pos: id -> key position
        pos = [0] * n
        for p, i in enumerate(ids):
            pos[i] = p
        given = [(ids[i], ids[j]) if rng.random() < 0.5 else (ids[j], ids[i]) for i, j in pairs]
        g = BallGraph(graph_params(2, 2), (None,) * n, ("",) * n, dlgraph._edge_array(n, pos, [(given, [0, 0])]))
        assert list(edge_pairs(g)) == sorted(pairs)
        assert list(g.edges) == sorted(i * n + j for i, j in pairs)


@pytest.mark.parametrize("d,q,k", ORACLE_PARAMS)
def test_export_chunks_concatenate_at_every_chunk_boundary(monkeypatch, d, q, k):
    # with n vertices and m edges, chunks of n - 1, n, n + 1, m - 1, m and
    # m + 1 items put each count either side of a chunk boundary; the joined
    # chunks are the oracle bytes, and besides its fixed parts (two in DOT,
    # three in JSON) each format writes ceil(n / size) + ceil(m / size) chunks
    for g in oracle_graphs(graph_params(d, q, k)):
        n, m = len(g.vertices), len(g.edges)
        dot, js = sha(export_dot_by_lines(g)), sha(export_json_by_dumps(g))
        for size in sorted({1, 2, n - 1, n, n + 1, m - 1, m, m + 1} - {-1, 0}):
            monkeypatch.setattr(dlgraph, "_CHUNK_ITEMS", size)
            chunks = {"dot": list(dlgraph.dot_chunks(g)), "json": list(dlgraph.json_chunks(g))}
            assert sha("".join(chunks["dot"])) == sha("".join(dot_chunks(g))) == dot
            assert sha("".join(chunks["json"])) == sha("".join(json_chunks(g))) == js
            runs = -(-n // size) + -(-m // size)
            assert (len(chunks["dot"]), len(chunks["json"])) == (2 + runs, 3 + runs)


@pytest.mark.parametrize("d,q,k", ORACLE_PARAMS)
def test_ball_matches_reference(d, q, k):
    p = graph_params(d, q, k)
    center = base_vertex(p)
    radius = 0
    while True:
        keys, vertices, depths = reference_ball(center, radius)
        if len(keys) > ORACLE_MAX_VERTICES:
            break
        ref = BallGraph(
            params=p,
            vertices=tuple(v.coords for v in vertices),
            keys=keys,
            edges=reference_edges(vertices),
            center=center,
            radius=radius,
            depths=depths,
        )
        assert_same_graph(ball(center, radius), ref)
        radius += 1
    assert radius >= 2


# (d, q, k, radius) for each ORACLE_PARAMS case: balls of 19 to 223 vertices
PARITY_BALLS = [
    (2, 2, 1, 4), (2, 2, 2, 3), (2, 2, 3, 2), (2, 3, 1, 3), (2, 3, 2, 2), (2, 3, 3, 1),
    (3, 2, 1, 2), (3, 2, 2, 1), (3, 2, 3, 1), (3, 3, 1, 2), (3, 3, 2, 1), (3, 3, 3, 1),
]


@pytest.mark.parametrize("d,q,k,radius", PARITY_BALLS)
def test_spheres_hold_edges_only_at_d_above_2(d, q, k, radius):
    # the parity fact behind a breadth-first ball's skipped outer-sphere
    # pass, counted on the reference ball, which skips nothing: at d = 2
    # every edge moves h_1 by +-k, so none joins two vertices of one
    # sphere; at d = 3 some do
    keys, vertices, depths = reference_ball(base_vertex(graph_params(d, q, k)), radius)
    assert len(keys) <= ORACLE_MAX_VERTICES
    same_depth = sum(
        len(reference_edges([v for v, x in zip(vertices, depths) if x == depth]))
        for depth in range(radius + 1)
    )
    assert (same_depth == 0) == (d == 2), same_depth


@pytest.mark.parametrize("q,k,radius", [(2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2)])
def test_d2_ball_off_the_base_matches_reference(q, k, radius):
    # the parity is relative to the center's height: a center at h_1 = k
    # with digits on each coordinate
    p = graph_params(2, q, k)
    center = dl_vertex(
        p, [tree_vertex(k, [(k, 1), (k - 1, q - 1)]), tree_vertex(-k, [(-k, 1), (-k - 2, 1)])]
    )
    keys, vertices, depths = reference_ball(center, radius)
    ref = BallGraph(
        params=p,
        vertices=tuple(v.coords for v in vertices),
        keys=keys,
        edges=reference_edges(vertices),
        center=center,
        radius=radius,
        depths=depths,
    )
    assert_same_graph(ball(center, radius), ref)


@pytest.mark.parametrize("q,k,radius", [(2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 3, 1)])
def test_d3_ball_off_the_base_matches_reference(q, k, radius):
    # a center with digits on every coordinate, some below and some above
    # the heights the ball's pools reach, its first height k
    p = graph_params(3, q, k)
    center = dl_vertex(
        p,
        [
            tree_vertex(k, [(k, 1), (k - 1, q - 1), (k - 3, 1)]),
            tree_vertex(-1, [(-1, q - 1), (-2, 1)]),
            tree_vertex(1 - k, [(-k, 1), (-k - 4, q - 1)]),
        ],
    )
    keys, vertices, depths = reference_ball(center, radius)
    assert len(keys) <= ORACLE_MAX_VERTICES
    ref = BallGraph(
        params=p,
        vertices=tuple(v.coords for v in vertices),
        keys=keys,
        edges=reference_edges(vertices),
        center=center,
        radius=radius,
        depths=depths,
    )
    assert_same_graph(ball(center, radius), ref)


@pytest.mark.parametrize("d,q,k,radius", PARITY_BALLS)
def test_ball_lists_no_neighbour_tuple(monkeypatch, d, q, k, radius):
    # a ball's vertices are products of signature pools and its edges come
    # from pool positions, so it builds no move table and makes no
    # induced-edge pass; its one _neighbor_coords call lists the half moves
    # on integer heights, never a vertex's neighbour tuple
    center = base_vertex(graph_params(d, q, k))
    keys, vertices, depths = reference_ball(center, radius)
    ref = BallGraph(
        params=center.params,
        vertices=tuple(v.coords for v in vertices),
        keys=keys,
        edges=reference_edges(vertices),
        center=center,
        radius=radius,
        depths=depths,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("ball stepped through neighbour tuples")

    calls = []
    neighbor_coords = dlgraph._neighbor_coords

    def on_heights(moves, coords, half=False):
        if not all(type(c) is int for c in coords):
            refuse()
        calls.append(coords)
        return neighbor_coords(moves, coords, half)

    for name in ("_move_table", "_induced_edges"):
        monkeypatch.setattr(dlgraph, name, refuse)
    monkeypatch.setattr(dlgraph, "_neighbor_coords", on_heights)
    assert_same_graph(ball(center, radius), ref)
    assert calls == [(0,) * d]


@pytest.mark.parametrize("d,q,k,radius,shapes,block_pairs", [(3, 2, 1, 4, 94, 540), (2, 2, 1, 8, 28, 100)])
def test_ball_folds_each_shape_once(monkeypatch, d, q, k, radius, shapes, block_pairs):
    # a block pair's edges depend only on its two products' pool sizes, so
    # the block pairs are grouped by that shape and each shape is folded
    # once, its relative pairs placed at every block pair of its group
    folds = []
    fold_moves = dlgraph._fold_moves

    def counted(sizes, target_sizes):
        folds.append((tuple(sizes), tuple(target_sizes)))
        return fold_moves(sizes, target_sizes)

    places = []
    batches = dlgraph._ball_edge_batches

    def listed(params, offsets):
        for pairs, at in batches(params, offsets):
            places.extend(zip(at[::2], at[1::2]))
            yield pairs, at

    monkeypatch.setattr(dlgraph, "_fold_moves", counted)
    monkeypatch.setattr(dlgraph, "_ball_edge_batches", listed)
    ball(base_vertex(graph_params(d, q, k)), radius)
    assert len(folds) == len(set(folds)) == shapes
    assert len(places) == len(set(places)) == block_pairs


@pytest.mark.parametrize(
    "d,q,k,radius", [(2, 2, 1, 4), (2, 3, 2, 3), (2, 2, 3, 3), (3, 2, 1, 2), (3, 2, 2, 2), (3, 3, 3, 1)]
)
def test_outer_sphere_pass_runs_only_at_d_above_2(monkeypatch, d, q, k, radius):
    # ball finds every edge from pool positions, so it makes no
    # _induced_edges pass at any d; the edges within the outer sphere,
    # which d = 3 has and d = 2 has not, come with the rest
    def refuse(*args, **kwargs):
        raise AssertionError("ball made an induced-edge pass")

    monkeypatch.setattr(dlgraph, "_induced_edges", refuse)
    g = ball(base_vertex(graph_params(d, q, k)), radius)
    outer = sum(g.depths[i] == g.depths[j] == radius for i, j in edge_pairs(g))
    assert (outer > 0) == (d > 2), outer


def test_box_graph_edge_bound_checked_before_any_member(monkeypatch):
    # each member has at most expected_degree neighbours, so a box holds at
    # most expected_degree * size / 2 edges; that bound meets the edge
    # budget before _box_listing lists anything
    def refuse(*args, **kwargs):
        raise AssertionError("box members were listed")

    p = graph_params(5, 3, 2)
    box = canonical_box(p, height_cube([(0, 2)] * 4, 2))
    assert (expected_degree(p), box_size(p, box)) == (216, 354_294)
    with monkeypatch.context() as mp:
        mp.setattr(dlgraph, "_box_listing", refuse)
        with pytest.raises(BudgetError, match=r"^box graph may hold 38263752 edges, budget 5000000$"):
            box_graph(p, box)
    # the bound of a d = 2, q = 2, side-2 box is 4 * 12 / 2 = 24 edges
    p = graph_params(2, 2)
    box = canonical_box(p, height_cube([(0, 2)]))
    monkeypatch.setattr(dlgraph, "DEFAULT_EDGE_BUDGET", 24)
    assert len(box_graph(p, box).vertices) == 12
    monkeypatch.setattr(dlgraph, "DEFAULT_EDGE_BUDGET", 23)
    with pytest.raises(BudgetError, match=r"box graph may hold 24 edges, budget 23"):
        box_graph(p, box)


def test_degree_checked_before_any_tree_move(monkeypatch):
    # every search that lists neighbours, or a ball or box graph of them,
    # first compares the closed-form degree with the vertex budget
    def refuse(*args, **kwargs):
        raise AssertionError("a tree move was listed")

    # 2 * 2 ** 19 neighbours; the one-member box may hold half as many
    # edges, within the edge budget
    p = graph_params(2, 2, 19)
    center = base_vertex(p)
    searches = [
        lambda: dl_neighbors(center),
        lambda: ball(center, 0),
        lambda: ball(center, 1),
        lambda: box_graph(p, canonical_box(p, height_cube([(0, 0)], 19))),
    ]
    with monkeypatch.context() as mp:
        for name in ("tree_children", "tree_parent", "tree_descendants", "tree_ancestor"):
            mp.setattr(dlgraph, name, refuse)
        mp.setattr(dlgraph, "_box_listing", refuse)
        for search in searches:
            with pytest.raises(BudgetError, match=r"^vertex has 1048576 neighbours, budget 500000$"):
                search()
    # a DL_2(2) vertex has 4 neighbours
    center = base_vertex(graph_params(2, 2))
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 4)
    assert len(dl_neighbors(center)) == 4
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 3)
    with pytest.raises(BudgetError, match=r"^vertex has 4 neighbours, budget 3$"):
        dl_neighbors(center)


@pytest.mark.parametrize("d,q,k", ORACLE_PARAMS + [(4, 2, k) for k in (1, 2, 3)])
def test_box_graph_matches_reference(d, q, k):
    p = graph_params(d, q, k)
    checked = 0
    for h in (0, k, 2 * k):
        cubes = [
            [(0, h)] * (d - 1),
            # a negative lower corner, the first axis still in kZ
            [(-k, h - k)] + [(-1 - t, h - 1 - t) for t in range(d - 2)],
            # a first axis in kZ but not at 0
            [(2 * k, 2 * k + h)] + [(1, 1 + h)] * (d - 2),
        ]
        for cube in (height_cube(iv, k) for iv in cubes):
            canon = canonical_box(p, cube)
            # the same cube under roots that carry a digit at their own height
            lifted = Box(cube, tuple(tree_vertex(r.level, [(r.level, 1)]) for r in canon.roots))
            for box in (canon, lifted):
                if box_size(p, box) > ORACLE_MAX_VERTICES:
                    continue
                by_key = {dl_key(v): v for v in box_members(p, box)}
                keys = tuple(sorted(by_key))
                vertices = tuple(by_key[kk] for kk in keys)
                ref = BallGraph(
                    params=p,
                    vertices=tuple(v.coords for v in vertices),
                    keys=keys,
                    edges=reference_edges(vertices),
                    cube=cube,
                )
                assert_same_graph(box_graph(p, box), ref)
                checked += 1
    # at d = q = k = 3, and at d = 4 with k > 1, only the one-point cubes fit under the cap
    assert checked >= 6


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pool_position_rule(q):
    # tree_descendants lists a pool in digit order, so child b of position
    # t sits at t*q + b one level down, and the ancestor m levels up of
    # position t is at t // q**m
    for root in (tree_root(0), tree_vertex(-2, [(-4, 1), (-2, q - 1)]), tree_vertex(3, [(3, 1)])):
        pools = [list(tree_descendants(root, depth, q)) for depth in range(6)]
        for depth in range(5):
            for t, v in enumerate(pools[depth]):
                assert [pools[depth + 1][t * q + b] for b in range(q)] == list(tree_children(v, q))
                for m in range(depth + 1):
                    assert pools[depth - m][t // q**m] == tree_ancestor(v, v.level - m)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_move_vectors_expand_to_the_half_step(d, q, k):
    # box_graph moves pool positions by the half step over the height
    # table, from the zero heights; expanded into tree moves, its vectors
    # list exactly the half step, in order, one vector per move
    p = graph_params(d, q, k)
    moves = dlgraph._move_table(p)
    vectors = dlgraph._neighbor_coords(dlgraph._height_moves(k), (0,) * d, half=True)
    assert len(set(vectors)) == len(vectors)
    for coords in ball(base_vertex(p), 1).vertices:
        expanded = []
        for vec in vectors:
            per_coord = [
                list(tree_descendants(c, change, q)) if change > 0 else [tree_ancestor(c, c.level + change)]
                for c, change in zip(coords, vec)
            ]
            expanded += itertools.product(*per_coord)
        assert expanded == dlgraph._neighbor_coords(moves, coords, half=True)


def test_box_graph_lists_no_neighbour_tuple(monkeypatch):
    # the edge pass computes member ids from pool positions, so it builds
    # no move table and makes no induced-edge pass; its one _neighbor_coords
    # call lists the half moves on integer heights, never a member's
    # neighbour tuple
    cases = []
    for d, q, k, h in [(2, 2, 1, 3), (3, 2, 1, 1), (2, 3, 2, 2), (3, 2, 2, 2), (2, 2, 3, 3), (4, 2, 1, 1)]:
        p = graph_params(d, q, k)
        cube = height_cube([(-k, h - k)] + [(-1, h - 1)] * (d - 2), k)
        box = canonical_box(p, cube)
        members = tuple(sorted(box_members(p, box), key=dl_key))
        ref = BallGraph(
            params=p,
            vertices=tuple(v.coords for v in members),
            keys=tuple(map(dl_key, members)),
            edges=reference_edges(members),
            cube=cube,
        )
        cases.append((p, box, ref))

    def refuse(*args, **kwargs):
        raise AssertionError("box_graph stepped through neighbour tuples")

    calls = []
    neighbor_coords = dlgraph._neighbor_coords

    def on_heights(moves, coords, half=False):
        if not all(type(c) is int for c in coords):
            refuse()
        calls.append(coords)
        return neighbor_coords(moves, coords, half)

    for name in ("_move_table", "_induced_edges"):
        monkeypatch.setattr(dlgraph, name, refuse)
    monkeypatch.setattr(dlgraph, "_neighbor_coords", on_heights)
    for p, box, ref in cases:
        calls.clear()
        assert_same_graph(box_graph(p, box), ref)
        assert calls == [(0,) * p.d]


def test_box_graph_gates_come_before_any_member(monkeypatch):
    # the edge bound and the member count are read from closed forms, so
    # neither lists a cube point or a pool
    def refuse(*args, **kwargs):
        raise AssertionError("box members were listed")

    monkeypatch.setattr(dlgraph, "cube_points", refuse)
    monkeypatch.setattr(dlgraph, "tree_descendants", refuse)
    p = graph_params(5, 3, 2)
    with pytest.raises(BudgetError, match=r"^box graph may hold 38263752 edges, budget 5000000$"):
        box_graph(p, canonical_box(p, height_cube([(0, 2)] * 4, 2)))
    p = graph_params(2, 2)
    with pytest.raises(BudgetError, match=r"^box has 4980736 members, budget 500000$"):
        box_graph(p, dlgraph.side_box(p, 18))


# ---------------------------------------------------------------------------
# distances


@pytest.fixture
def cold_memo():
    """An empty distance memo before and after the test, so each distance is searched."""
    dlgraph._state_distance.cache_clear()
    yield
    dlgraph._state_distance.cache_clear()


def naive_distance(u, v, cap=12):
    if u == v:
        return 0
    seen = {dl_key(u)}
    frontier = [u]
    target = dl_key(v)
    for depth in range(1, cap + 1):
        nxt = []
        for x in frontier:
            for w in dl_neighbors(x):
                kw = dl_key(w)
                if kw == target:
                    return depth
                if kw not in seen:
                    seen.add(kw)
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("no path found by naive search")


def test_distance_matches_ball_depths():
    p = graph_params(2, 2)
    center = base_vertex(p)
    g = ball(center, 3)
    for v, dep in zip(graph_vertices(g), g.depths):
        assert dl_distance(center, v) == dep
        assert dl_distance(v, center) == dep


def test_distance_matches_naive_bfs_random_pairs():
    p = graph_params(2, 2)
    g = ball(base_vertex(p), 2)
    rng = random.Random(31)
    verts = graph_vertices(g)
    for _ in range(25):
        u = rng.choice(verts)
        v = rng.choice(verts)
        assert dl_distance(u, v) == naive_distance(u, v)


@pytest.mark.parametrize("d,q,k", [(2, 2, 2), (3, 2, 1)])
def test_distance_matches_naive_bfs_other_graphs(d, q, k):
    p = graph_params(d, q, k)
    g = ball(base_vertex(p), 2)
    rng = random.Random(37)
    verts = graph_vertices(g)
    for _ in range(25):
        u = rng.choice(verts)
        v = rng.choice(verts)
        assert dl_distance(u, v) == naive_distance(u, v)


def test_distance_on_index_graph(monkeypatch, cold_memo):
    p = graph_params(2, 2, 2)
    base = base_vertex(p)
    for w in dl_neighbors(base):
        assert dl_distance(base, w) == 1
    monkeypatch.setattr(dlgraph, "DEFAULT_DISTANCE_CAP", 2)
    with pytest.raises(BudgetError):
        far = dl_vertex(p, (tree_root(8), tree_root(-8)))
        dl_distance(base, far)


def test_distance_cap_holds_cold(monkeypatch, cold_memo):
    p = graph_params(2, 2, 2)
    base = base_vertex(p)
    far = dl_vertex(p, (tree_root(8), tree_root(-8)))
    with monkeypatch.context() as mp:
        mp.setattr(dlgraph, "DEFAULT_DISTANCE_CAP", 2)
        with pytest.raises(BudgetError, match=r"cap 2: distance at least 4, 1 states reached"):
            dl_distance(base, far)
    assert dl_distance(base, far) == 4
    monkeypatch.setattr(dlgraph, "DEFAULT_DISTANCE_CAP", 4)
    dlgraph._state_distance.cache_clear()
    assert dl_distance(base, far) == 4


# ---------------------------------------------------------------------------
# distances: the signature-state search against vertex BFS

# (d, q, k, radius); the test ids read d-q-radius at k = 1, d-q-k-radius else
ORACLE_BALLS = (
    (2, 2, 1, 5), (2, 3, 1, 4), (3, 2, 1, 3), (3, 3, 1, 2),
    (2, 2, 2, 3), (2, 3, 2, 2), (3, 2, 2, 2), (3, 3, 2, 1),
    (2, 2, 3, 2), (2, 3, 3, 1), (3, 2, 3, 1), (3, 3, 3, 1),
)


def oracle_ids(cases):
    return [f"{d}-{q}-{last}" if k == 1 else f"{d}-{q}-{k}-{last}" for d, q, k, last in cases]


def swap_class(sig):
    """One signature per pair orientation: (u, v) and (v, u) share a distance."""
    return min(sig, tuple((b, a) for a, b in sig))


@pytest.fixture(scope="session")
def bfs_by_signature():
    """Per oracle ball, every pair signature in it with its vertex-BFS distance."""
    out = {}
    for d, q, k, r in ORACLE_BALLS:
        verts = graph_vertices(ball(base_vertex(graph_params(d, q, k)), r))
        pairs = {}
        for i, u in enumerate(verts):
            for v in verts[i:]:  # (v, u) is in the class of (u, v)
                pairs.setdefault(swap_class(dlgraph._pair_signature(u, v)), (u, v))
        out[d, q, k, r] = {
            sig: (u, v, vertex_distance(u, v, DEFAULT_DISTANCE_CAP))
            for sig, (u, v) in pairs.items()
        }
    return out


@pytest.mark.parametrize("d,q,k,r", ORACLE_BALLS, ids=oracle_ids(ORACLE_BALLS))
def test_signature_search_matches_vertex_bfs(cold_memo, bfs_by_signature, d, q, k, r):
    table = bfs_by_signature[d, q, k, r]
    # a radius-1 ball at d = 2, q = 3, k = 3 holds 9 signature classes
    assert len(table) > (40 if k == 1 else 8)
    for u, v, dist in table.values():
        assert dl_distance(u, v) == dist
        assert dl_distance(v, u) == dist


@pytest.mark.parametrize("d,q,k,r", ORACLE_BALLS, ids=oracle_ids(ORACLE_BALLS))
def test_state_moves_are_the_graph_edges_seen_from_the_target(d, q, k, r):
    # for a pair (u, v), the states one move from (u, v)'s state are exactly
    # the states of (w, v) over the neighbours w of u
    verts = graph_vertices(ball(base_vertex(graph_params(d, q, k)), r))
    rng = random.Random(700 + 100 * d + 10 * q + k)

    def state(x, y):
        return dlgraph._canonical_state(k, dlgraph._pair_signature(x, y))

    for _ in range(250):
        u, v = rng.choice(verts), rng.choice(verts)
        edges = {state(w, v) for w in dl_neighbors(u)}
        assert edges == set(dlgraph._state_moves(k, state(u, v))), (dl_key(u), dl_key(v))


FAR_WALKS = (
    (2, 2, 1, 24), (2, 3, 1, 24), (3, 2, 1, 12), (3, 3, 1, 10),
    (2, 2, 2, 16), (2, 3, 2, 12), (3, 2, 2, 12), (3, 3, 2, 8),
    (2, 2, 3, 10), (2, 3, 3, 6), (3, 2, 3, 8), (3, 3, 3, 4),
)


@pytest.mark.parametrize("d,q,k,steps", FAR_WALKS, ids=oracle_ids(FAR_WALKS))
def test_signature_search_matches_vertex_bfs_far_pairs(cold_memo, d, q, k, steps):
    p = graph_params(d, q, k)
    rng = random.Random(41 + d + q)
    base = base_vertex(p)
    for _ in range(3):
        v = base
        for _ in range(steps):
            v = rng.choice(dl_neighbors(v))
        assert dl_distance(base, v) == vertex_distance(base, v, DEFAULT_DISTANCE_CAP)


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (2, 2), (3, 2)], ids=["2", "3", "2-2", "3-2"])
def test_signature_distance_does_not_depend_on_q(bfs_by_signature, d, k):
    q2, q3 = (bfs_by_signature[b] for b in ORACLE_BALLS if b[0] == d and b[2] == k)
    common = set(q2) & set(q3)
    assert len(common) > 20
    for sig in common:
        assert q2[sig][2] == q3[sig][2]


def test_index_distance_far_beyond_the_vertex_budget(cold_memo):
    # a vertex BFS stops at its budget of 500,000 vertices on this pair
    p = graph_params(3, 3, 3)
    far = dl_vertex(
        p,
        (
            tree_vertex(6, [(1, 1), (3, 2), (6, 1)]),
            tree_vertex(-3, [(-5, 2)]),
            tree_vertex(-3, [(-6, 1)]),
        ),
    )
    assert dl_key(far) == "6:1=1,3=2,6=1|-3:-5=2|-3:-6=1"
    assert dl_distance(base_vertex(p), far) == 7


@pytest.mark.parametrize("d,q,k,r", [(2, 2, 2, 3), (3, 2, 2, 2), (3, 2, 3, 2)])
def test_index_distance_builds_no_graph_move(monkeypatch, cold_memo, d, q, k, r):
    g = ball(base_vertex(graph_params(d, q, k)), r)

    def refuse(*args, **kwargs):
        raise AssertionError("a distance search stepped through graph vertices")

    monkeypatch.setattr(dlgraph, "_neighbor_coords", refuse)
    monkeypatch.setattr(dlgraph, "_move_table", refuse)
    for v, dep in zip(graph_vertices(g), g.depths):
        assert dl_distance(g.center, v) == dep


def pair_with_signature(params, sig):
    """A vertex pair whose coordinates sit at the heights sig gives above their meets.

    Each meet is at height 0 except the last, which balances the heights;
    when both heights are positive, the target branches off at digit 1.
    """
    meets = [0] * (params.d - 1) + [-sum(c for c, _ in sig)]
    u, v = [], []
    for m, (c, e) in zip(meets, sig):
        u.append(tree_vertex(m + c))
        v.append(tree_vertex(m + e, [(m + 1, 1)] if c and e else []))
    return dl_vertex(params, u), dl_vertex(params, v)


def test_two_coordinate_distance_is_bertacchis_closed_form(cold_memo):
    # on DL_2(q), D = c_1 + e_1 + c_2 + e_2 - |c_1 - e_1| (Bertacchi, "Random
    # walks on Diestel-Leader graphs", 2001), here on every signature with
    # entries at most 7, and dl_distance, which reads the formula, agrees
    # with the search _state_distance there and on every canonical state
    # with entries at most 9
    p = graph_params(2, 2)
    sigs = [
        ((c1, e1), (c2, c1 + c2 - e1))
        for c1, e1, c2 in itertools.product(range(8), repeat=3)
        if 0 <= c1 + c2 - e1 <= 7
    ]
    assert len(sigs) == 344
    for sig in sigs:
        u, v = pair_with_signature(p, sig)
        assert dlgraph._pair_signature(u, v) == sig
        (c1, e1), (c2, e2) = sig
        dist = c1 + e1 + c2 + e2 - abs(c1 - e1)
        assert dl_distance(u, v) == dist
        assert dlgraph._state_distance(1, dlgraph._canonical_state(1, sig)) == dist
    states = {
        dlgraph._canonical_state(1, ((c1, e1), (c2, c1 + c2 - e1)))
        for c1, e1, c2 in itertools.product(range(10), repeat=3)
        if 0 <= c1 + c2 - e1 <= 9
    }
    assert len(states) == 340
    for state in states:
        u, v = pair_with_signature(p, state)
        assert dl_distance(u, v) == dlgraph._state_distance(1, state), state


def test_two_coordinate_distance_runs_no_search(monkeypatch, capsys, bfs_by_signature):
    # at d = 2, k = 1 every distance is the closed form: with the search and
    # its moves refused, the oracle pairs, a pair far past the distance cap
    # and the state budget, and the distortion and tile-map modes all answer
    def refuse(*args, **kwargs):
        raise AssertionError("a d = 2, k = 1 distance ran a search")

    for name in ("_state_distance", "_state_moves"):
        monkeypatch.setattr(dlgraph, name, refuse)
    for d, q, k, r in ORACLE_BALLS:
        if d == 2 and k == 1:
            for u, v, dist in bfs_by_signature[d, q, k, r].values():
                assert dl_distance(u, v) == dist
    p = graph_params(2, 2)
    far = dl_vertex(p, (tree_root(100), tree_root(-100)))
    assert dl_distance(base_vertex(p), far) == 100
    argvs = (
        ["qilab", "--mode", "distortion", "--d", "2", "--q", "3", "--h", "3",
         "--map", "alpha,id", "--pairs", "200"],
        ["qilab", "--mode", "umap", "--d", "2", "--q", "2", "--k", "3", "--h", "6",
         "--assert", "ktoone"],
    )
    for argv in argvs:
        assert cli.main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("d,q,k,r", ORACLE_BALLS, ids=oracle_ids(ORACLE_BALLS))
def test_state_bound_is_admissible_and_consistent(bfs_by_signature, d, q, k, r):
    # the A* bound never exceeds the vertex-BFS distance, is 0 only at the
    # goal, and drops by at most 1 along every state move
    for u, v, dist in bfs_by_signature[d, q, k, r].values():
        state = dlgraph._canonical_state(k, dlgraph._pair_signature(u, v))
        bound = dlgraph._state_bound(k, state)
        assert bound <= dist and (bound == 0) == (dist == 0), state
        for w in dlgraph._state_moves(k, state):
            assert bound <= 1 + dlgraph._state_bound(k, w), (state, w)


FAR_STATES = (
    (((5, 5),) * 5, 35),
    (((4, 6), (5, 5), (6, 4), (7, 7)), 30),
    (((0, 0), (0, 0), (8, 8), (8, 8)), 24),
    (((6, 6),) * 6, 48),
)


@pytest.mark.parametrize("state,dist", FAR_STATES, ids=["5x55", "46-55-64-77", "00-00-88-88", "6x66"])
def test_far_states_within_the_default_limits(cold_memo, state, dist):
    # a two-frontier search stores over 200,000 states on the first of these;
    # an A* search by ceil(sum of c) alone stores over 200,000 on the last
    assert dlgraph._state_distance(1, state) == dist
    u, v = pair_with_signature(graph_params(len(state), 2), state)
    assert dlgraph._pair_signature(u, v) == state
    assert dl_distance(u, v) == dist


def signature_state(k, u, v):
    return dlgraph._canonical_state(k, dlgraph._pair_signature(u, v))


def test_signature_distance_cap_holds_cold(monkeypatch, cold_memo):
    # the search holds its cap on a d = 2 state, which dl_distance answers by
    # the closed form, and dl_distance holds it on a d = 3 state, which it searches
    p = graph_params(2, 2)
    base = base_vertex(p)
    far = dl_vertex(p, (tree_root(4), tree_root(-4)))
    p3 = graph_params(3, 2)
    base3 = base_vertex(p3)
    far3 = dl_vertex(p3, (tree_root(4), tree_root(-2), tree_root(-2)))
    with monkeypatch.context() as mp:
        mp.setattr(dlgraph, "DEFAULT_DISTANCE_CAP", 2)
        with pytest.raises(BudgetError, match=r"cap 2: distance at least 4, 1 states reached"):
            dlgraph._state_distance(1, signature_state(1, base, far))
        with pytest.raises(BudgetError, match=r"cap 2: distance at least 4, 1 states reached"):
            dl_distance(base3, far3)
        assert dl_distance(base, far) == 4
    assert dlgraph._state_distance(1, signature_state(1, base, far)) == 4
    assert dl_distance(base3, far3) == 4
    monkeypatch.setattr(dlgraph, "DEFAULT_DISTANCE_CAP", 4)
    dlgraph._state_distance.cache_clear()
    assert dlgraph._state_distance(1, signature_state(1, far, base)) == 4
    assert dl_distance(far3, base3) == 4


def test_distance_searches_hold_their_budgets(monkeypatch, cold_memo):
    monkeypatch.setattr(dlgraph, "DEFAULT_STATE_BUDGET", 3)
    p = graph_params(2, 2)
    far = dl_vertex(p, (tree_root(4), tree_root(-4)))
    with pytest.raises(BudgetError, match=r"budget 3: distance at least 4, 3 states reached"):
        dlgraph._state_distance(1, signature_state(1, base_vertex(p), far))
    p3 = graph_params(3, 2)
    far3 = dl_vertex(p3, (tree_root(4), tree_root(-2), tree_root(-2)))
    with pytest.raises(BudgetError, match=r"budget 3: distance at least 4, 3 states reached"):
        dl_distance(base_vertex(p3), far3)
    p2 = graph_params(2, 2, 2)
    far2 = dl_vertex(p2, (tree_root(8), tree_root(-8)))
    with pytest.raises(BudgetError, match=r"budget 3: distance at least 4, 3 states reached"):
        dl_distance(base_vertex(p2), far2)


def test_distance_memo_stays_bounded():
    # the memo holds DIST_CACHE_LIMIT answers; the same search under a
    # three-entry cache, with far more distinct signatures than that over
    # the ball, stays at three entries and every answer stays exact
    assert dlgraph._state_distance.cache_info().maxsize == dlgraph.DIST_CACHE_LIMIT
    small = lru_cache(maxsize=3)(dlgraph._state_distance.__wrapped__)
    p = graph_params(2, 3)
    base = base_vertex(p)
    sizes = []
    for v in graph_vertices(ball(base, 3)):
        state = dlgraph._canonical_state(1, dlgraph._pair_signature(base, v))
        assert small(1, state) == vertex_distance(base, v, DEFAULT_DISTANCE_CAP)
        sizes.append(small.cache_info().currsize)
    assert max(sizes) == 3
    assert small.cache_info().misses > 3  # entries were evicted and searched again


def test_repeated_pair_is_one_memo_hit(cold_memo):
    p = graph_params(3, 2)
    base = base_vertex(p)
    far = dl_vertex(p, (tree_root(2), tree_root(-1), tree_root(-1)))
    assert dl_distance(base, far) == dl_distance(base, far)
    info = dlgraph._state_distance.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


# ---------------------------------------------------------------------------
# graph rules against the per-point and per-k versions they replaced


def per_point_cube_boundary(params, cube, r):
    """A fresh frontier search from every cube point, stopped once it leaves.

    The height steps are the tracked heights of the base vertex's
    neighbours, since the base vertex sits at height zero.
    """
    steps = {rho(w) for w in dl_neighbors(base_vertex(params))}
    inside = set(cube_points(cube))
    out = []
    for p in sorted(inside):
        frontier = {p}
        seen = {p}
        for _ in range(r):
            nxt = set()
            for x in frontier:
                for s in steps:
                    y = tuple(a + b for a, b in zip(x, s))
                    if y not in seen:
                        seen.add(y)
                        nxt.add(y)
            if any(y not in inside for y in nxt):
                out.append(p)
                break
            frontier = nxt
    return out


def recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def two_loop_neighbors(v):
    """Neighbours with the k = 1 ordinary moves written apart from the k > 1 ones."""
    params = v.params
    d, q, k = params.d, params.q, params.k

    def ordinary(lo):
        out = []
        for i in range(lo, d):
            for j in range(lo, d):
                if i == j:
                    continue
                up = tree_parent(v.coords[j])
                for child in tree_children(v.coords[i], q):
                    coords = list(v.coords)
                    coords[i] = child
                    coords[j] = up
                    out.append(dlgraph.DLVertex(params, tuple(coords)))
        return out

    if k == 1:
        return ordinary(0)
    out = ordinary(1)
    up_first = tree_ancestor(v.coords[0], v.coords[0].level - k)
    for combo in recursive_compositions(k, d - 1):
        pools = [list(tree_descendants(v.coords[1 + t], combo[t], q)) for t in range(d - 1)]
        for choice in itertools.product(*pools):
            out.append(dlgraph.DLVertex(params, (up_first,) + tuple(choice)))
    for combo in recursive_compositions(k, d - 1):
        ups = tuple(
            tree_ancestor(v.coords[1 + t], v.coords[1 + t].level - combo[t])
            for t in range(d - 1)
        )
        for down in tree_descendants(v.coords[0], k, q):
            out.append(dlgraph.DLVertex(params, (down,) + ups))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cube_boundary_is_per_point_search(d, k):
    p = graph_params(d, 2, k)
    # up to 7k (5k at d = 4), so that at r = 2 and r = 3 some points are interior
    sides = (k, 2 * k, 5 * k) if d == 4 else (k, 2 * k, 3 * k, 5 * k, 7 * k)
    for side in sides:
        # one cube at the origin, one shifted off it (still aligned on axis 1)
        for corner in (0, -k):
            cube = height_cube(
                [(corner, corner + side)] + [(corner + t, corner + t + side) for t in range(1, d - 1)],
                k,
            )
            for r in range(4):
                assert cube_boundary(p, cube, r) == per_point_cube_boundary(p, cube, r), (side, r)


def test_compositions_match_recursive_version():
    for parts in range(1, 5):
        for total in range(7):
            assert list(dlgraph._compositions(total, parts)) == list(
                recursive_compositions(total, parts)
            )


@pytest.fixture(scope="module")
def small_ball():
    """small_ball(d, q, k): the largest ball around the base vertex with at
    most 2,000 vertices, built once per module."""
    built = {}

    def get(d, q, k):
        if (d, q, k) not in built:
            p = graph_params(d, q, k)
            g = ball(base_vertex(p), 1)
            with pytest.MonkeyPatch.context() as mp, contextlib.suppress(BudgetError):
                mp.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 2_000)
                while True:
                    g = ball(base_vertex(p), g.radius + 1)
            built[d, q, k] = g
        return built[d, q, k]

    return get


@pytest.mark.parametrize("d,q,k", ORACLE_PARAMS)
def test_neighbors_match_two_loop_version(small_ball, d, q, k):
    g = small_ball(d, q, k)
    for v in graph_vertices(g):
        assert dl_neighbors(v) == two_loop_neighbors(v)


@pytest.mark.parametrize("d,q,k", ORACLE_PARAMS)
def test_half_step_lists_each_edge_from_one_endpoint(small_ball, d, q, k):
    p = graph_params(d, q, k)
    g = small_ball(d, q, k)
    moves = dlgraph._move_table(p)
    half = {u: dlgraph._neighbor_coords(moves, u, half=True) for u in g.vertices}
    for u, depth in zip(g.vertices, g.depths):
        full = dlgraph._neighbor_coords(moves, u)
        rest = iter(full)
        assert all(w in rest for w in half[u])  # a sub-list, in the same order
        if depth < g.radius:  # then every neighbour is in the ball
            for w in full:
                assert (w in half[u]) != (u in half[w]), (u, w)


def test_searches_run_on_coordinate_tuples(monkeypatch):
    # ball expands coordinate tuples, box_graph pool positions and a
    # distance search signature states, so none builds a DLVertex per
    # neighbour or calls dl_neighbors
    cases = []
    for d, q, k in [(2, 2, 1), (3, 2, 1), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
        p = graph_params(d, q, k)
        base = base_vertex(p)
        cube = height_cube([(0, 2 * k)] * (d - 1), k)
        g = ball(base, 3)
        far = DLVertex(p, g.vertices[g.depths.index(3)])
        cases.append((base, p, canonical_box(p, cube), far, k))
    expected = [
        (ball(base, 3), box_graph(p, box), k > 1 and dl_distance(base, far))
        for base, p, box, far, k in cases
    ]

    def refuse(v):
        raise AssertionError("a search built DLVertex neighbours")

    monkeypatch.setattr(dlgraph, "dl_neighbors", refuse)
    dlgraph._state_distance.cache_clear()  # so each distance is searched again
    got = [
        (ball(base, 3), box_graph(p, box), k > 1 and dl_distance(base, far))
        for base, p, box, far, k in cases
    ]
    assert got == expected
    assert [dist for _, _, dist in got] == [False, False, 3, 3, 3]


@pytest.mark.parametrize("d,q,k,pools", [(4, 2, 2, 8), (3, 2, 3, 15)])
def test_ball_lists_each_descendant_pool_once(monkeypatch, d, q, k, pools):
    # a ball builds each signature pool, the descendants of a center-line
    # vertex at one depth, once for its vertices and once for its key
    # texts, however many blocks share it, each from the pool a level up
    # and none through tree_descendants; depth 0 pools are line vertices
    seen = []
    pool_step = dlgraph._pool_step

    def counted(q, z, c, e):
        seen.append((z, c, e))
        return pool_step(q, z, c, e)

    def refuse(*args, **kwargs):
        raise AssertionError("a ball listed descendants through tree_descendants")

    monkeypatch.setattr(dlgraph, "_pool_step", counted)
    monkeypatch.setattr(dlgraph, "tree_descendants", refuse)
    g = ball(base_vertex(graph_params(d, q, k)), 2)
    monkeypatch.undo()
    assert g == ball(base_vertex(graph_params(d, q, k)), 2)
    assert len(set(seen)) == pools
    assert collections.Counter(seen) == dict.fromkeys(seen, 2)
    assert all(c >= 1 for _, c, _ in seen)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 1)])
def test_back_to_back_searches_match_reference_across_q(d, k):
    # each ball and box graph owns its pool table, so one at q = 3 right
    # after one at q = 2 with the same d and k sees none of the q = 2 pools
    got = {}
    for q in (2, 3):
        p = graph_params(d, q, k)
        box = canonical_box(p, height_cube([(0, k)] * (d - 1), k))
        got[q] = (ball(base_vertex(p), 2), box_graph(p, box), box)
    for q, (g, bg, box) in got.items():
        p = graph_params(d, q, k)
        center = base_vertex(p)
        keys, vertices, depths = reference_ball(center, 2)
        assert_same_graph(
            g,
            BallGraph(
                params=p,
                vertices=tuple(v.coords for v in vertices),
                keys=keys,
                edges=reference_edges(vertices),
                center=center,
                radius=2,
                depths=depths,
            ),
        )
        members = tuple(sorted(box_members(p, box), key=dl_key))
        assert_same_graph(
            bg,
            BallGraph(
                params=p,
                vertices=tuple(v.coords for v in members),
                keys=tuple(map(dl_key, members)),
                edges=reference_edges(members),
                cube=box.cube,
            ),
        )


def test_searches_leave_no_module_state():
    # the move and pool tables live only as long as their search, and the distance
    # memo is _state_distance's bounded lru_cache, so the module holds no
    # dict, list or set at all
    def containers():
        return [
            name
            for name, obj in vars(dlgraph).items()
            if isinstance(obj, (dict, list, set)) and not name.startswith("__")
        ]

    assert containers() == []
    for d, q, k in [(3, 2, 1), (2, 3, 2), (3, 2, 2)]:
        p = graph_params(d, q, k)
        base = base_vertex(p)
        g = ball(base, 2)
        box_graph(p, canonical_box(p, height_cube([(0, k)] * (d - 1), k)))
        assert dl_distance(base, DLVertex(p, g.vertices[-1])) == g.depths[-1]
    assert containers() == []
