"""Vertex model and combinatorics of Diestel-Leader graphs.

T is the (q+1)-regular tree with a fixed end, drawn so every vertex has one
upward (parent) edge and q downward (child) edges. A vertex at height n is
addressed by its branching digits: a finitely supported map from height
indices <= n to {0, ..., q-1}, with zeros omitted. Heights may be negative;
the all-zero address at any height is a valid vertex.

DL_d(q) is the set of d-tuples of tree vertices whose heights sum to zero;
an edge moves one coordinate down to a child and another up to its parent.
The index-k variant DL_d^k(q) constrains the first height to multiples of k
and has two kinds of edges: ordinary moves among coordinates 2..d, and
moves of the first coordinate by a full k step compensated by a monotone
distribution of k single steps over the remaining coordinates.

At d = 2 every edge moves the first height by exactly +-k: at k = 1 an
ordinary move pairs the two coordinates, and at k > 1 an ordinary move
needs two of the coordinates 2..d, of which d = 2 has one. So the depth
from a center is (h_1(v) - h_1(center)) / k mod 2, and no edge joins two
vertices of one sphere. A breadth-first ball, over coordinate tuples
(_ball_search) or words (group._word_ball), so makes no outer-sphere pass
at d = 2; at d >= 3 it lists that sphere's edges by one _induced_edges
pass with the half step.

Boxes are the connected components of preimages of height cubes under the
height map; each fiber over a cube point is a product of descendant sets,
so all counting here is exact. Aligned boxes of a common side tile a box,
which is the geometric input for the index-k comparison map.

A vertex's distance from a center depends only on their pair signature, so
a ball (ball) is listed as blocks, one per signature within the radius:
the product over coordinates of the tree vertices with one pair against
the center's coordinate, a pool of descendants of one vertex of the
center's line. A box's fiber over a cube point is a block too: the
signature ((depth_1, 0), ..., (depth_d, 0)) against the box's roots. So
both read one pool table (_signature_pools), which builds each pool once,
from the pool a level up, and one edge pass (_block_edge_batches), which
reads the move rule once, over integer heights (_height_moves), folds
each pool-size shape of its block pairs once and finds each edge's
endpoints by their pool positions (_fold_moves); neither lists a
neighbour tuple. A search over graph vertices (dl_neighbors,
_ball_search) keeps its own table of tree moves, one shape for every k:
per tree vertex and m in 0..k, its descendants m levels down and its
ancestor m levels up (its children and parent at m = 1), each built on
first use and dropped when the search returns.

Exact distances depend only on per-coordinate heights above the meets
(_distance). On DL_2(q) they are Bertacchi's closed form; for d >= 3 or
k > 1 they are found by a search over those heights, which builds no
graph vertex and does not depend on q, and are memoized on those height
signatures by _state_distance's lru_cache, so the memo holds searched
states only. One move rule, _state_moves, serves every k, in the order of
_neighbor_coords.

Every search limit (vertex budget, edge budget, distance cap, state
budget) is a module constant that the search reads when it runs. The
vertex budget bounds every ball, graph or word (_layered_bfs; a graph
ball's signature states count as the vertices they stand for, before any
is built), and every list whose length has a closed form, checked by
_within_budget before it is built: a box's members, a cube's points, a
vertex's neighbours (_check_degree), and in qilab a fiber's descendant
walk and a probe window.
That gate and the print gate, _printable, build a power q**e by one rule
(_low_bits): only while its bound 2**low has low < 4 * L, L the digit limit.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from functools import lru_cache, partial
from heapq import heappop, heappush
from itertools import islice, product, repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .record import Record


class BudgetError(ValueError):
    """A request exceeds its configured size or depth budget."""


class RegionAlignmentError(ValueError):
    """A region is not aligned to the requested tiling grid."""


# The search limits (see the module docstring) and the size of the distance memo.
DEFAULT_VERTEX_BUDGET = 500_000
DEFAULT_EDGE_BUDGET = 5_000_000
DEFAULT_DISTANCE_CAP = 64
DEFAULT_STATE_BUDGET = 200_000
DIST_CACHE_LIMIT = 1 << 16


def _low_bits(n: int, q: int = 2, e: int = 0) -> "tuple[int, bool]":
    """(low, small): 2**low <= n * q**e (n >= 1, q >= 2, e >= 0) by bit lengths, and low < 4 * L.

    L is str()'s digit limit, read when called, or with none the
    interpreter's default. 2**(4 * L) = 16**L has more than L digits, so
    q**e (e > 0) is built only while small.
    """
    low = n.bit_length() - 1 + e * (q.bit_length() - 1)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    return low, low < 4 * limit


def _within_budget(n: int, subject: str, q: int = 2, e: int = 0) -> int:
    """n * q**e, the length of a list about to be built, once within the vertex budget.

    The budget is read when called. subject names the list, with {} where
    its length goes. A length not small (_low_bits) is refused before q**e
    is built, and written in digits only when small and str() can print it
    (_prints), as at least 2**low otherwise.
    """
    low, small = _low_bits(n, q, e)
    if small:
        n *= q**e
        if n <= DEFAULT_VERTEX_BUDGET:
            return n
        low, small = _low_bits(n)
    count = n if small and _prints(n) else f"at least 2^{low}"
    raise BudgetError(f"{subject.format(count)}, budget {DEFAULT_VERTEX_BUDGET}")


def _prints(n: int) -> bool:
    """Whether str() can print n: |n| < 10**limit, limit read when called (0 for none).

    Any |n| < 8**limit passes without building 10**limit.
    """
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10**limit


def _printable(n: int, what: str, q: int = 2, e: int = 0) -> int:
    """n * q**e, about to be printed, once str() can print it (_prints); what names it.

    A power (e > 0) not small (_low_bits) is refused before it is built.
    """
    low, small = _low_bits(n, q, e)
    if small or not e:
        n *= q**e
        if _prints(n):
            return n
    limit = sys.get_int_max_str_digits()
    raise ValueError(f"{what} has more than {limit} digits, the limit for printing an integer" if limit
                     else f"{what} is at least 2^{low}, too large to build with no digit limit")


class GraphParams(NamedTuple):
    d: int
    q: int
    k: int = 1


def _is_int(x) -> bool:
    """Whether x is an int and not a bool, the one rule for integer arguments."""
    return isinstance(x, int) and not isinstance(x, bool)


def graph_params(d: int, q: int, k: int = 1) -> GraphParams:
    if not _is_int(d) or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    if not _is_int(q) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return GraphParams(d=d, q=q, k=k)


def expected_degree(params: GraphParams) -> int:
    """Vertex degree: (d-1)(d-2)q + 2 q^k C(k+d-2, d-2); d(d-1)q when k=1."""
    d, q, k = params.d, params.q, params.k
    return (d - 1) * (d - 2) * q + 2 * q**k * math.comb(k + d - 2, d - 2)


# ---------------------------------------------------------------------------
# tree vertices


class TreeVertex(NamedTuple):
    """Height plus sparse branching digits (index, value), value nonzero.

    The same pair names the clone of ends below the vertex: every digit
    stream that agrees with these digits at each index up to the height.
    """

    level: int
    digits: tuple


def tree_vertex(level: int, digits: Iterable = (), q: Optional[int] = None) -> TreeVertex:
    items = sorted((int(i), int(v)) for i, v in digits)
    seen = set()
    for i, v in items:
        if i in seen:
            raise ValueError(f"duplicate digit index {i}")
        seen.add(i)
        if i > level:
            raise ValueError(f"digit index {i} above vertex height {level}")
        if v == 0:
            raise ValueError("zero digits must be omitted")
        if v < 0 or (q is not None and v >= q):
            raise ValueError(f"digit value {v} out of range")
    return TreeVertex(level=level, digits=tuple(items))


def tree_root(level: int = 0) -> TreeVertex:
    return TreeVertex(level=level, digits=())


def tree_parent(v: TreeVertex) -> TreeVertex:
    n = v.level
    return TreeVertex(n - 1, tuple((i, val) for i, val in v.digits if i != n))


def tree_children(v: TreeVertex, q: int) -> "tuple[TreeVertex, ...]":
    n = v.level + 1
    out = [TreeVertex(n, v.digits)]
    for b in range(1, q):
        out.append(TreeVertex(n, v.digits + ((n, b),)))
    return tuple(out)


def tree_ancestor(v: TreeVertex, level: int) -> TreeVertex:
    if level > v.level:
        raise ValueError(f"no ancestor above height {v.level} at height {level}")
    return TreeVertex(level, tuple((i, val) for i, val in v.digits if i <= level))


def tree_descendants(v: TreeVertex, depth: int, q: int) -> Iterator[TreeVertex]:
    """All q^depth descendants exactly depth levels below v, in digit order, level by level.

    The position rule: the descendant at position t reads its digits below
    v as a base-q number, the digit just below v most significant. So child
    b of position t sits at position t*q + b one level down, and the
    ancestor m levels up of position t is at t // q**m.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    digits = [v.digits]
    for i in range(v.level + 1, v.level + depth + 1):
        steps = ((),) + tuple(((i, b),) for b in range(1, q))
        digits = [d + step for d in digits for step in steps]
    for d in digits:
        yield TreeVertex(v.level + depth, d)


def meet_level(u: TreeVertex, v: TreeVertex) -> int:
    """Height of the deepest common ancestor.

    Digits are sorted by index, so the first differing digit index is the
    smaller index at the first position where the digit lists disagree.
    """
    top = min(u.level, v.level)
    for a, b in zip(u.digits, v.digits):
        if a != b:
            return min(top, a[0] - 1, b[0] - 1)
    n = min(len(u.digits), len(v.digits))
    rest = u.digits[n:] or v.digits[n:]
    return min(top, rest[0][0] - 1) if rest else top


def tree_key(v: TreeVertex) -> str:
    body = ",".join(f"{i}={val}" for i, val in v.digits)
    return f"{v.level}:{body}"


# ---------------------------------------------------------------------------
# graph vertices


class DLVertex(Record):
    """A vertex of DL_d(q): d tree coordinates whose heights sum to zero.

    An immutable record (see record.Record).
    """

    __slots__ = _fields = ("params", "coords")

    def __init__(self, params: GraphParams, coords: tuple):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coords", coords)


def dl_vertex(params: GraphParams, coords: Sequence[TreeVertex]) -> DLVertex:
    coords = tuple(coords)
    if len(coords) != params.d:
        raise ValueError(f"need {params.d} tree coordinates, got {len(coords)}")
    if sum(c.level for c in coords) != 0:
        raise ValueError("coordinate heights must sum to zero")
    if coords[0].level % params.k != 0:
        raise ValueError(f"first height must be a multiple of k={params.k}")
    for c in coords:
        for _, val in c.digits:
            if not 0 < val < params.q:
                raise ValueError(f"digit value {val} out of range for q={params.q}")
    return DLVertex(params=params, coords=coords)


def base_vertex(params: GraphParams) -> DLVertex:
    return DLVertex(params, tuple(tree_root(0) for _ in range(params.d)))


def rho(v: DLVertex) -> "tuple[int, ...]":
    """Tracked heights: all but the last, which they determine."""
    return tuple(c.level for c in v.coords[:-1])


def dl_key(v: DLVertex) -> str:
    return "|".join(tree_key(c) for c in v.coords)


@lru_cache(maxsize=64)
def _compositions(total: int, parts: int) -> "tuple[tuple[int, ...], ...]":
    """Ordered ways to write total as parts nonnegative integers, in lex order.

    Every k > 1 neighbour list reads the compositions of k into d - 1
    parts, so they are built once per (k, d).
    """
    return tuple(c for c in product(range(total + 1), repeat=parts) if sum(c) == total)


class LazyDict(dict):
    """A dict that builds a missing entry from its key on first lookup."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _ChainDict(LazyDict):
    """A LazyDict whose entries are built from its other entries: build(table, key).

    The build function reads those entries through its first argument, so
    it holds no reference to its own table, and dropping the table frees
    it at once, not at the next run of the cyclic garbage collector.
    """

    __slots__ = ()

    def __missing__(self, key):
        value = self[key] = self.build(self, key)
        return value


class _MoveTable(NamedTuple):
    """The tree moves of one graph search, each built on first use.

    For m in 0..k, downs[m][c] lists the descendants of the tree vertex c
    m levels down, in digit order, and ups[m][c] is its ancestor m levels
    up; downs[1] holds the children and ups[1] the parent, which the
    ordinary moves read. Many graph vertices share a tree coordinate, so a
    search that keeps one table builds each tree move once. The table
    lives only as long as its search.
    """

    downs: tuple
    ups: tuple


def _check_degree(params: GraphParams) -> int:
    """The vertex degree (expected_degree), once within the vertex budget.

    The degree is at least 2 * q**k, so a q**k too long to build
    (_low_bits) is refused before it is built.
    """
    if not _low_bits(2, params.q, params.k)[1]:
        _within_budget(2, "vertex has {} neighbours", params.q, params.k)
    return _within_budget(expected_degree(params), "vertex has {} neighbours")


def _move_table(params: GraphParams) -> _MoveTable:
    """An empty table for one search.

    The closed-form degree is checked against the vertex budget first, so
    no neighbour list longer than the budget is ever built.
    """
    _check_degree(params)
    q, k = params.q, params.k
    downs = [LazyDict(lambda c: (c,)), LazyDict(lambda c: tree_children(c, q))]
    ups = [LazyDict(lambda c: c), LazyDict(tree_parent)]
    for m in range(2, k + 1):
        downs.append(LazyDict(lambda c, m=m: tuple(tree_descendants(c, m, q))))
        ups.append(LazyDict(lambda c, m=m: tree_ancestor(c, c.level - m)))
    return _MoveTable(tuple(downs), tuple(ups))


def _height_moves(k: int) -> _MoveTable:
    """The tree moves seen through the height map: a _MoveTable on integer heights.

    Descending m levels adds m to a height and climbing m subtracts it, so
    _neighbor_coords over this table lists each move once, as its heights.
    """
    return _MoveTable(
        tuple(LazyDict(lambda h, m=m: (h + m,)) for m in range(k + 1)),
        tuple(LazyDict(lambda h, m=m: h - m) for m in range(k + 1)),
    )


def _neighbor_coords(moves: _MoveTable, coords: tuple, half: bool = False) -> "list[tuple]":
    """The coordinate tuples of the neighbours of a vertex, in a fixed order.

    Ordinary moves send one coordinate down to each child and another up
    to its parent, over every ordered pair of distinct coordinates from lo
    on: all of them when k = 1, coordinates 2..d otherwise. For k > 1 they
    are followed by the first coordinate climbing k while the others
    descend along a composition of k, then the first descending k while the
    others climb along one. At k = 1 those two families are ordinary moves
    of the first coordinate, so the one loop lists every edge.

    With half, each undirected edge is listed from exactly one endpoint:
    moving i down and j up is the reverse of moving j down and i up, so
    only the pairs i < j are kept, and the first coordinate climbing k is
    the reverse of it descending k, so the list stops after that family.

    The tree moves are read from moves, the calling search's _MoveTable,
    which holds one entry per m in 0..k; d is the number of coordinates.
    """
    downs, ups = moves
    d, k = len(coords), len(downs) - 1
    children, parents = downs[1], ups[1]
    lo = 0 if k == 1 else 1
    out = []
    for i in range(lo, d - 1 if half else d):
        kids = children[coords[i]]
        for j in range(i + 1 if half else lo, d):
            if i == j:
                continue
            nxt = list(coords)
            nxt[j] = parents[coords[j]]
            for child in kids:
                nxt[i] = child
                out.append(tuple(nxt))
    if k == 1:
        return out
    combos = _compositions(k, d - 1)
    rest = coords[1:]
    up_first = ups[k][coords[0]]
    for combo in combos:
        pools = [downs[m][c] for c, m in zip(rest, combo)]
        for choice in product(*pools):
            out.append((up_first,) + choice)
    if half:
        return out
    downs_first = downs[k][coords[0]]
    for combo in combos:
        climbs = tuple(ups[m][c] for c, m in zip(rest, combo))
        for down in downs_first:
            out.append((down,) + climbs)
    return out


def dl_neighbors(v: DLVertex) -> "list[DLVertex]":
    """The neighbours of v, in the order of _neighbor_coords."""
    return [DLVertex(v.params, c) for c in _neighbor_coords(_move_table(v.params), v.coords)]


# ---------------------------------------------------------------------------
# height cubes


class HeightCube(Record):
    """Product of integer intervals on the tracked heights, common side.

    An immutable record (see record.Record).
    """

    __slots__ = _fields = ("intervals", "k")

    def __init__(self, intervals: tuple, k: int = 1):
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "k", k)


def height_cube(intervals: Sequence, k: int = 1) -> HeightCube:
    iv = tuple((int(a), int(b)) for a, b in intervals)
    if not iv:
        raise ValueError("a cube needs at least one axis")
    sides = {b - a for a, b in iv}
    if len(sides) != 1 or min(b - a for a, b in iv) < 0:
        raise ValueError(f"intervals must share a nonnegative side, got {iv}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 1:
        a1, b1 = iv[0]
        if a1 % k or b1 % k:
            raise ValueError(f"first axis [{a1}, {b1}] must be aligned to {k}Z")
    return HeightCube(intervals=iv, k=k)


def cube_side(cube: HeightCube) -> int:
    a, b = cube.intervals[0]
    return b - a


def _cube_axes(cube: HeightCube) -> "list[range]":
    """The lattice points of each axis: the first steps by k, the others by 1."""
    return [range(a, b + 1, cube.k if idx == 0 else 1) for idx, (a, b) in enumerate(cube.intervals)]


def cube_points(cube: HeightCube) -> "list[tuple[int, ...]]":
    """The lattice points, in lex order, once cube_size is within the vertex budget."""
    _within_budget(cube_size(cube), "cube has {} points")
    return list(product(*_cube_axes(cube)))


def cube_size(cube: HeightCube) -> int:
    return math.prod(map(len, _cube_axes(cube)))


def cube_contains(cube: HeightCube, point: Sequence[int]) -> bool:
    return len(point) == len(cube.intervals) and all(
        x in axis for x, axis in zip(point, _cube_axes(cube))
    )


def cube_boundary(params: GraphParams, cube: HeightCube, r: int) -> "list[tuple[int, ...]]":
    """Points of the cube within r lattice steps of its complement, sorted.

    One edge changes each tracked height by at most k, and on every axis
    some edge changes it by exactly k; so the r-ball of a height point
    projects onto each axis as the interval of radius r*k around it. A set
    lies in a product of intervals exactly when each of its projections
    does, so a point is r-close to the complement exactly when it lies
    within r*k of a face.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    _check_cube(params, cube)
    margin = r * params.k
    return [
        p
        for p in cube_points(cube)
        if any(x - a < margin or b - x < margin for x, (a, b) in zip(p, cube.intervals))
    ]


# ---------------------------------------------------------------------------
# boxes


class Box(Record):
    """One connected component of the preimage of a height cube.

    An immutable record (see record.Record).
    """

    __slots__ = _fields = ("cube", "roots")

    def __init__(self, cube: HeightCube, roots: tuple):
        object.__setattr__(self, "cube", cube)
        object.__setattr__(self, "roots", roots)


def canonical_box(params: GraphParams, cube: HeightCube) -> Box:
    _check_cube(params, cube)
    roots = [tree_root(a) for a, _ in cube.intervals]
    roots.append(tree_root(-sum(b for _, b in cube.intervals)))
    return Box(cube=cube, roots=tuple(roots))


def side_box(params: GraphParams, h: int) -> Box:
    """The canonical box over [0, h]^(d-1), its first axis aligned to params.k."""
    return canonical_box(params, height_cube([(0, h)] * (params.d - 1), params.k))


def _check_cube(params: GraphParams, cube: HeightCube) -> None:
    if len(cube.intervals) != params.d - 1:
        raise ValueError(f"cube has {len(cube.intervals)} axes, need {params.d - 1}")
    if cube.k != params.k:
        raise ValueError(f"cube alignment {cube.k} does not match graph k={params.k}")


def _fiber_depths(box: Box, point: Sequence[int]) -> "list[int]":
    """Per coordinate, how far the members over a cube point sit below the root."""
    if not cube_contains(box.cube, point):
        raise ValueError(f"point {tuple(point)} is outside the cube")
    levels = (*point, -sum(point))
    depths = [lvl - root.level for lvl, root in zip(levels, box.roots)]
    if min(depths) < 0:
        raise ValueError("depth must be nonnegative")
    return depths


def fiber_pools(params: GraphParams, box: Box, point: Sequence[int]) -> "list[tuple]":
    """Per coordinate, the pool of tree vertices whose product is the fiber over a point.

    Each pool is tree_descendants of its root, so a pool position follows
    the position rule: child b of position t is at t*q + b in the pool one
    level deeper, and the ancestor m levels up of t is at t // q**m. The
    program reads the same pools from _signature_pools, at (root, (depth,
    0)); these, built from the root, are box_members' plain reference.
    """
    depths = _fiber_depths(box, point)
    return [tuple(tree_descendants(r, depth, params.q)) for r, depth in zip(box.roots, depths)]


def box_fiber_size(params: GraphParams, box: Box, point: Sequence[int]) -> int:
    """q**depth descendants per coordinate, so q**(total depth) members."""
    return params.q ** sum(_fiber_depths(box, point))


def box_members(params: GraphParams, box: Box) -> Iterator[DLVertex]:
    """The members in _box_listing's build order, with no key, sort or budget check.

    Each fiber is the product of its pools (fiber_pools); a box from
    another graph is refused (_check_box) before the first is yielded."""
    _check_box(params, box)
    for point in cube_points(box.cube):
        for coords in product(*fiber_pools(params, box, point)):
            yield DLVertex(params, coords)


def box_size(params: GraphParams, box: Box) -> int:
    """Every fiber has q**((d-1)*side) members, so this is O(d).

    The roots sit at the cube's lower corner and at minus its upper corner
    sum, so the depths below them sum to (d-1)*side at every cube point.
    """
    _check_box(params, box)
    return cube_size(box.cube) * params.q ** ((params.d - 1) * cube_side(box.cube))


def _check_box(params: GraphParams, box: Box) -> None:
    """Refuse a box from another graph: its cube's axes and alignment (_check_cube), and its d roots."""
    _check_cube(params, box.cube)
    if len(box.roots) != params.d:
        raise ValueError(f"box has {len(box.roots)} roots, need {params.d}")


def _box_budget(params: GraphParams, box: Box) -> int:
    """box_size of a box of this graph (_check_box), once within the vertex budget.

    A fiber size too long to print is not built."""
    _check_box(params, box)
    e = (params.d - 1) * cube_side(box.cube)
    return _within_budget(cube_size(box.cube), "box has {} members", params.q, e)


def box_boundary_size(params: GraphParams, box: Box, r: int) -> int:
    """Members within graph distance r of the box complement, counted unlisted.

    A member is r-close to it exactly when its tracked heights are r-close
    to the cube complement, so this is the r-boundary's cube points
    (cube_boundary: those within r*k of a face, the rest are _inner_cube's)
    times the common fiber size (box_size).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    _check_box(params, box)
    inner = cube_size(_inner_cube(box.cube, r))
    return (cube_size(box.cube) - inner) * params.q ** ((params.d - 1) * cube_side(box.cube))


def _inner_cube(cube: HeightCube, r: int) -> HeightCube:
    """The cube shrunk by r*k on every face, an axis too short left empty.

    Each end loses r points of the first axis, which steps by k, and r*k of the others.
    """
    margin = r * cube.k
    return HeightCube(tuple((a + margin, b - margin) for a, b in cube.intervals), cube.k)


# ---------------------------------------------------------------------------
# balls and exports


class BallGraph(NamedTuple):
    """A finite vertex set with its induced edges.

    Balls carry center, radius, and depths, each vertex's distance from
    the center; box slices carry their cube instead. vertices holds each
    vertex's coordinate tuple, as the pool product made it, not a DLVertex;
    a caller that needs vertices wraps them. Vertices are sorted by canonical key, so equal
    inputs always produce byte-identical exports. edges is one sorted
    array('q') holding an edge between key positions i < j as the code
    i*n + j, n the vertex count, so code order is (i, j) order. _edge_array
    writes that format, from groups of build-id pairs that each hold one
    fold and the places it is shifted to, and edge_pairs reads it; no
    other code knows it.
    """

    params: GraphParams
    vertices: tuple
    keys: tuple
    edges: array
    center: Optional[DLVertex] = None
    radius: Optional[int] = None
    depths: Optional[tuple] = None
    cube: Optional[HeightCube] = None


def _edge_array(n: int, pos: Sequence[int], groups: Iterable) -> array:
    """BallGraph.edges of n vertices, for the edges in groups.

    Each group is (pairs, places): pairs is one fold of build-id pairs
    (a, b) relative to two products of pools (_fold_moves), and places
    lists the two offsets of each place one after the other, so it holds
    no pair object; the place (offset, target) holds the edges
    (offset + a, target + b). pos maps build ids to key positions. A
    group's fold is dropped before the next is built, and the codes are
    sorted in place, since sorted() would hold a second list of them.
    """
    codes = []
    push = codes.append
    for pairs, places in groups:
        it = iter(places)
        for offset, target in zip(it, it):
            for a, b in pairs:
                a, b = pos[offset + a], pos[target + b]
                push(a * n + b if a < b else b * n + a)
        del pairs  # the fold is freed before the next group is built
    codes.sort()
    return array("q", codes)


def edge_pairs(g: BallGraph) -> Iterator["tuple[int, int]"]:
    """The edges of g as key-position pairs (i, j), i < j, in sorted order."""
    return map(divmod, g.edges, repeat(len(g.keys)))


# Inside one GraphParams a vertex is identified by its coordinate tuple,
# which is what the graph searches run on; the dl_key string is built once
# per distinct vertex, to sort the vertices and label them for export, from
# tree keys built once per pool member (_signature_pools), since many
# vertices share a coordinate.


def _induced_edges(nodes, index, half_step, start: int) -> array:
    """The edges among nodes[start:], each listed once, as a flat array('q') of ids i, j, i < j.

    half_step(x) yields the neighbours of the hashable node x such that
    every edge is yielded from exactly one of its endpoints, and index maps
    a node to its position in nodes.
    """
    edges = array("q")
    for i in range(start, len(nodes)):
        for w in half_step(nodes[i]):
            j = index.get(w)
            if j is not None and j >= start:
                edges.extend((i, j) if i < j else (j, i))
    return edges


def _check_radius(radius) -> None:
    if not _is_int(radius) or radius < 0:
        raise ValueError(f"radius must be a nonnegative integer, got {radius!r}")


def _layered_bfs(start, radius: int, step, noun: str, edges=None, half_step=None, weight=None):
    """Breadth-first ball of the given radius around start.

    step(x) yields the neighbours of the hashable node x, and a node is its
    own identity. Returns the nodes in discovery order (so a smaller id is
    never deeper), the map from node to id, and each node's depth. With an
    edges array (or list), the ids i, j, i < j, of every edge of the
    induced subgraph are appended to it one after the other, so it holds
    one int per edge end and no pair object: edges from inside the radius
    while the BFS runs, since every neighbour of such a vertex is in the
    ball, then, when half_step is given, the edges within the outer sphere
    from one _induced_edges pass over it. A caller passes no half_step only
    when no edge joins two nodes of one sphere: some integer function of a
    node changes by exactly +-1 along every edge, so its parity is the
    parity of the depth.

    Its nodes stand for at most DEFAULT_VERTEX_BUDGET items, read when it
    runs: one each, or weight(x) for a node x other than start (a graph
    ball's signature states stand for their vertices, _state_size). It
    raises as the running total passes the budget, which names the first
    depth whose ball exceeds it; noun names the items in the error. A
    radius that is not a nonnegative int (_check_radius) raises ValueError.
    """
    _check_radius(radius)
    budget = DEFAULT_VERTEX_BUDGET
    found = [start]
    ids = {start: 0}
    depths = [0]
    total = 1
    push = edges.append if edges is not None else None
    begin = 0
    for depth in range(1, radius + 1):
        stop = len(found)
        for i in range(begin, stop):
            for w in step(found[i]):
                j = ids.get(w)
                if j is None:
                    j = ids[w] = len(found)
                    found.append(w)
                    depths.append(depth)
                    total += weight(w) if weight else 1
                    if total > budget:
                        raise BudgetError(
                            f"ball of radius {radius} exceeds budget {budget}: "
                            f"{budget + 1} {noun} reached at depth {depth}"
                        )
                # an edge is recorded from its endpoint with the smaller id
                if push is not None and i < j:
                    push(i)
                    push(j)
        begin = stop
    if edges is not None and half_step is not None:
        edges += _induced_edges(found, ids, half_step, begin)
    return found, ids, depths


def _ball_search(center: DLVertex, radius: int, ends):
    """A graph ball by a _layered_bfs over coordinate tuples: the tuples, their ids and depths.

    ends gets the ids of every induced edge's ends, as in _layered_bfs. The
    move table lives only as long as the search. group's correspondence
    check reads its graph side from this search, not from ball's listing:
    on the balls it checks, of tens to a few thousand vertices, the BFS
    costs less than building signature pools and blocks.
    """
    step = partial(_neighbor_coords, _move_table(center.params))
    # at d = 2 no edge joins two vertices of one sphere (module docstring)
    half_step = partial(step, half=True) if center.params.d > 2 else None
    return _layered_bfs(center.coords, radius, step, "vertices", ends, half_step)


def ball(center: DLVertex, radius: int) -> BallGraph:
    """The ball of the given radius around center, with its induced edges.

    A vertex's distance from the center depends only on its signature, one
    pair (c, e) per coordinate (_pair_signature), and the vertices with one
    signature are a block: the product over coordinates of the signature
    pools (center coordinate, pair) (_signature_pools). The signatures
    within the radius are the distinct orderings (_orderings) of the
    canonical states one _layered_bfs finds from the goal, every pair
    (0, 0), by _state_moves, at their BFS depth. That search counts each
    state as the vertices it stands for (_state_size), so the closed-form
    degree (_check_degree) and the ball's size are checked against the
    vertex budget before any pool is built.

    The blocks are listed in build order, their keys from the pools' key
    texts; the pool table is dropped before the edges are found by pool
    positions, one fold per pool-size shape of a block pair
    (_block_edge_batches), and encoded in key order (_edge_array) as they
    come.
    """
    params = center.params
    _check_degree(params)
    k = params.k
    states, _, state_depths = _layered_bfs(
        ((0, 0),) * params.d, radius, partial(_state_moves, k), "vertices",
        weight=partial(_state_size, params.q, k),
    )
    pools = _signature_pools(params.q)
    members, keys, depths, offsets = [], [], array("I"), {}
    for state, depth in zip(states, state_depths):
        for signature in _orderings(k, state):
            ats = list(zip(center.coords, signature))
            offsets[signature] = start = len(members)
            members += product(*[pools.vertices[at] for at in ats])
            keys += map("|".join, product(*[pools.keys[at] for at in ats]))
            depths.extend(repeat(depth, len(members) - start))
    del pools  # drops the pool key texts before the edge pass
    order, pos = _key_order(keys)
    return BallGraph(
        params=params,
        vertices=tuple(map(members.__getitem__, order)),
        keys=tuple(map(keys.__getitem__, order)),
        edges=_edge_array(len(keys), pos, _block_edge_batches(params, offsets)),
        center=center,
        radius=radius,
        depths=tuple(map(depths.__getitem__, order)),
    )


def _pool_size(q: int, pair: tuple) -> int:
    """How many tree vertices have the pair (c, e) against a given one (_signature_pools)."""
    c, e = pair
    if not c:
        return 1
    return q**c if not e else (q - 1) * q ** (c - 1)


def _state_size(q: int, k: int, state: tuple) -> int:
    """How many graph vertices have a canonical signature state against a given center.

    Each distinct ordering of the state (_orderings) is one signature, and
    its vertices are the product of its pools (_pool_size). There are
    d!/prod m! orderings at k = 1, and (d-1)!/prod m! of pairs 2..d at
    k > 1, each m the number of equal pairs in a run.
    """
    lo = 0 if k == 1 else 1
    n = math.factorial(len(state) - lo)
    run = 1
    for i in range(lo + 1, len(state)):
        # the m-th equal pair in a run divides by m, so a run of m divides by m!
        run = run + 1 if state[i] == state[i - 1] else 1
        n //= run
    return n * math.prod([_pool_size(q, pair) for pair in state])


def _orderings(k: int, state: tuple) -> Iterator[tuple]:
    """The distinct orderings of a canonical state, in lex order: of every pair at k = 1, else of pairs 2..d.

    The sorted pairs are the first; each next one is the lexicographic
    successor, so equal pairs are never swapped.
    """
    lo = 0 if k == 1 else 1
    head, rest = state[:lo], list(state[lo:])
    while True:
        yield head + tuple(rest)
        i = len(rest) - 2
        while i >= 0 and rest[i] >= rest[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(rest) - 1
        while rest[j] <= rest[i]:
            j -= 1
        rest[i], rest[j] = rest[j], rest[i]
        rest[i + 1:] = rest[:i:-1]


def _block_edge_batches(params: GraphParams, offsets: dict) -> Iterator[tuple]:
    """The edges among blocks as (pairs, places) groups, one per fold shape (_edge_array).

    offsets maps each block's signature to its first build id: a ball's
    blocks in build order (ball), or a box's fibers (box_graph), whose
    pairs (depth, 0) are moved by a height move exactly as the box's pools
    are, and whose climbs past a root reach a pair (0, e > 0), which no
    fiber has. A half move (_neighbor_coords' half step from the zero
    heights, over _height_moves) sends each coordinate's pair where its
    tree move does: it stays when the height does, goes to each of its
    _descents when the height grows and to its _climb when it falls. Each
    choice among those is a target signature; when it is a block of the
    ball, the edges are the product over coordinates of the moves of pool
    positions, which depend only on the two blocks' pool sizes. So the
    block pairs are grouped by that shape, (sizes, target sizes), each
    shape is folded once into relative build-id pairs (_fold_moves), and
    its group's places are the offset and target offset of each of its
    block pairs.
    Every edge among the blocks is listed once, from the endpoint whose
    half step holds it.
    """
    k = params.k
    vectors = _neighbor_coords(_height_moves(k), (0,) * params.d, half=True)
    def reach_of(pair):
        # where each height change in -k..k sends the pair
        out = {0: [pair]}
        for m in range(1, k + 1):
            out[m], out[-m] = _descents(pair, m), [_climb(pair, m)]
        return out

    reach = LazyDict(reach_of)
    size = LazyDict(partial(_pool_size, params.q))
    sizes_of = {signature: tuple([size[pair] for pair in signature]) for signature in offsets}
    shapes = {}
    for signature, offset in offsets.items():
        sizes = sizes_of[signature]
        reaches = [reach[pair] for pair in signature]
        for vec in vectors:
            for target in product(*[r[x] for r, x in zip(reaches, vec)]):
                target_offset = offsets.get(target)
                if target_offset is not None:
                    shapes.setdefault((sizes, sizes_of[target]), []).extend((offset, target_offset))
    del sizes_of
    while shapes:  # each group's places are freed once it is encoded
        (sizes, target_sizes), places = shapes.popitem()
        yield _fold_moves(sizes, target_sizes), places


def _key_order(keys: list) -> "tuple[list[int], list[int]]":
    """(order, pos): order[p] is the index of the p-th smallest key, and pos[order[p]] = p."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    return order, pos


class _PoolTable(NamedTuple):
    """Pools of tree vertices and their tree_key texts, each built on first use (_signature_pools).

    Each pool is built from the one a level up: a child's digits are its
    parent's with at most one (level, value) appended, and its digit text
    is its parent's with at most one "level=value" concatenated. The table
    holds no reference cycle (_ChainDict), so it is freed as soon as its
    listing drops it.
    """

    vertices: LazyDict
    keys: LazyDict


def _pool_step(q: int, z: TreeVertex, c: int, e: int) -> "tuple[int, list[int]]":
    """(n, values): the height of pool (c, e) against z, and the digit at n of child b, in order.

    The digit is b plus z's digit at n, mod q. At (1, e), e > 0, b = 0 is
    z's branch and is left out.
    """
    n = z.level - e + c
    shift = 0
    for i, v in z.digits:
        if i == n:
            shift = v
    return n, [(b + shift) % q for b in range(1 if c == 1 and e else 0, q)]


def _signature_pools(q: int) -> _PoolTable:
    """An empty pool table keyed by (z, (c, e)): the tree vertices whose pair against z is (c, e).

    The pairs are _pair_signature's; nothing is built until read. A ball
    reads its pools against its center's coordinates, and a box's fiber
    over a cube point reads the pools (root, (depth, 0)), the tree
    vertices depth levels below each root (fiber_pools), so the fibers of
    a box share them.

    Pool (c, e) against z holds the descendants c levels below z's
    ancestor e levels up, and when c, e > 0 only those off z's branch,
    (q-1) * q**(c-1) of them (_pool_size); it is built from the pool
    (c - 1, e). Its order carries the position rule from the pools against
    the base vertex's coordinate, tree_root(0): the tree automorphism that
    shifts heights by z's and adds z's digits maps those onto these, and it
    maps child b of a vertex to the child whose digit is b plus z's digit
    there (_pool_step). So child b of position t is at t*q + b one level
    down (t*q + b - 1 at (1, e), e > 0), and the ancestor m levels up of
    position t is at t // q**m while it stays in pools of the same e.
    Below z (e = 0) z has no digit, and the order is tree_descendants'
    digit order.
    """

    def vertices(pools, at):
        z, (c, e) = at
        if not c:
            return (tree_ancestor(z, z.level - e),)
        n, values = _pool_step(q, z, c, e)
        steps = [((n, v),) if v else () for v in values]
        return tuple([TreeVertex(n, u.digits + s) for u in pools[z, (c - 1, e)] for s in steps])

    def digit_texts(texts, at):
        z, (c, e) = at
        if not c:
            return [",".join(f"{i}={v}" for i, v in z.digits if i <= z.level - e)]
        n, values = _pool_step(q, z, c, e)
        above = texts[z, (c - 1, e)]
        steps = [f",{n}={v}" if v else "" for v in values]
        out = [text + s for text in above for s in steps]
        if "" in above:  # the one vertex with no digits: its children's texts begin at their digit
            first = above.index("") * len(steps)
            out[first:first + len(steps)] = [s[1:] for s in steps]
        return out

    def keys(at):
        z, (c, e) = at
        prefix = f"{z.level - e + c}:"
        return [prefix + text for text in digit_texts_of[at]]

    digit_texts_of = _ChainDict(digit_texts)
    return _PoolTable(_ChainDict(vertices), LazyDict(keys))


def _fiber_signature(box: Box, point: Sequence[int]) -> tuple:
    """The fiber's signature against the box's roots over a cube point: ((depth_1, 0), ..., (depth_d, 0))."""
    return tuple([(depth, 0) for depth in _fiber_depths(box, point)])


class _BoxListing(NamedTuple):
    """A box's members, listed once (_box_listing): their keys and how to reach them."""

    keys: tuple
    offsets: dict
    order: list
    pos: list
    pools: _PoolTable


def _box_listing(params: GraphParams, box: Box, size: Optional[int] = None) -> _BoxListing:
    """(keys, offsets, order, pos, pools): the member keys of a box, in key order.

    A member's build id is the offset of its cube point, offsets[point],
    plus a mixed-radix number over its pool positions, the last coordinate
    fastest: box_members' order. order and pos map key-sorted positions to
    build ids and back (_key_order). The box and its closed-form size are
    checked against the vertex budget (_box_budget) before any pool is
    read, unless the caller passes the size that check gave it. Each fiber
    is a block, read from the pools (root, pair) of its signature
    (_fiber_signature) in a _signature_pools table, and its member keys are
    the products of those pools' keys; no member's coordinates are listed
    here (_listed_members does that).
    """
    if size is None:
        _box_budget(params, box)
    pools = _signature_pools(params.q)
    keys, offsets = [], {}
    for point in cube_points(box.cube):
        offsets[point] = len(keys)
        ats = list(zip(box.roots, _fiber_signature(box, point)))
        keys += map("|".join, product(*[pools.keys[at] for at in ats]))
    order, pos = _key_order(keys)
    return _BoxListing(tuple(map(keys.__getitem__, order)), offsets, order, pos, pools)


def _listed_members(box: Box, listing: _BoxListing) -> tuple:
    """The coordinate tuples of a box's members, in its listing's key order.

    The one lister of box members: each fiber is the product of its pools'
    vertices, in build order, then sorted by listing.order. No DLVertex is
    built; a caller that needs vertices wraps the tuples.
    """
    pools, members = listing.pools, []
    for point in listing.offsets:
        ats = list(zip(box.roots, _fiber_signature(box, point)))
        members += product(*[pools.vertices[at] for at in ats])
    return tuple(map(members.__getitem__, listing.order))


def _position_moves(size: int, target: int, stride: int = 1, target_stride: int = 1) -> "list[tuple[int, int]]":
    """(t, t') for each position t of a pool of size and each tree move into a pool of target.

    By the position rule (_signature_pools), staying keeps t, descending m
    levels goes to t * q**m + r for each r < q**m, and climbing m goes to
    t // q**m; the pool sizes are in the ratio q**m. A descent from a
    vertex of the center line, a pool of size 1, reaches all of each pool
    it meets (_descents), and a climb past the meet reaches the one
    vertex of its pool. Each t is given times stride and each t' times
    target_stride.
    """
    if target >= size:
        fan = target // size
        return [(t * stride, (t * fan + r) * target_stride) for t in range(size) for r in range(fan)]
    step = size // target
    return [(t * stride, t // step * target_stride) for t in range(size)]


def _fold_moves(sizes: Sequence[int], target_sizes: Sequence[int]) -> list:
    """The build-id pairs of one half move between two products of pools, each from 0.

    A member's build id is its product's offset plus a mixed-radix number
    over its pool positions, the last coordinate fastest; sizes and
    target_sizes are the pools' sizes, and each coordinate's tree move is
    read off them (_position_moves). The pairs are relative to the two
    offsets, so one fold serves every pair of products of the same sizes
    (_edge_array). A coordinate whose two pools are single vertices adds
    nothing.
    """
    pairs = None
    src_stride = tgt_stride = 1
    for size, tsize in zip(reversed(sizes), reversed(target_sizes)):
        if size == tsize == 1:
            continue
        if pairs is None:  # the strides are still 1
            pairs = _position_moves(size, tsize)
        else:
            moves = _position_moves(size, tsize, src_stride, tgt_stride)
            pairs = [(a + t, b + u) for a, b in pairs for t, u in moves]
        src_stride *= size
        tgt_stride *= tsize
    return pairs or [(0, 0)]


def box_graph(params: GraphParams, box: Box) -> BallGraph:
    """Induced subgraph on the members of a box, wired as a ball is.

    The box is checked once, with its closed-form size against the vertex
    budget (_box_budget) and deg * size / 2 against the edge budget,
    before any member is listed (_box_listing, handed that size). Each
    fiber is a block of the signature (_fiber_signature), so the edges
    come from the ball's edge pass (_block_edge_batches) over the fibers'
    signatures, as pairs of member build ids, and are encoded in key order
    (_edge_array) as they come, one fold shape at a time.
    """
    deg = _check_degree(params)
    n = _box_budget(params, box)
    # a member has at most deg neighbours
    bound = deg * n // 2
    if bound > DEFAULT_EDGE_BUDGET:
        raise BudgetError(f"box graph may hold {bound} edges, budget {DEFAULT_EDGE_BUDGET}")
    listing = _box_listing(params, box, n)
    vertices = _listed_members(box, listing)
    keys, pos = listing.keys, listing.pos
    offsets = {_fiber_signature(box, point): offset for point, offset in listing.offsets.items()}
    del listing  # drops the pool table's key texts before the edge pass
    return BallGraph(
        params=params,
        vertices=vertices,
        keys=keys,
        edges=_edge_array(len(keys), pos, _block_edge_batches(params, offsets)),
        cube=box.cube,
    )


def sphere_sizes(g: BallGraph) -> "tuple[int, ...]":
    """Vertices per BFS depth, from the ball's radius and depths.

    Only those two fields are read, so a group.CayleyBall works as well.
    """
    if g.depths is None or g.radius is None:
        raise ValueError("graph carries no BFS depth data")
    out = [0] * (g.radius + 1)
    for dep in g.depths:
        out[dep] += 1
    return tuple(out)


def _height_labels(vertices) -> Iterator[str]:
    """Each coordinate tuple's heights as "h_1,...,h_d", in the order given.

    The text is built once per distinct height tuple, since all members of
    a fiber, and many vertices of a ball, share one. A TreeVertex is a
    tuple whose first field is its level, so next(zip(*coords)) is the
    height tuple.
    """
    label = LazyDict(lambda hs: ",".join(map(str, hs)))
    return (label[next(zip(*coords))] for coords in vertices)


# items per chunk of a graph export, so that a chunk's text and the list of
# item strings its join holds stay a few hundred kB at most
_CHUNK_ITEMS = 2048


def dot_chunks(g: BallGraph) -> Iterator[str]:
    """The DOT export of g as text chunks of up to _CHUNK_ITEMS lines each.

    "".join(dot_chunks(g)) is the whole payload; no list of all the lines
    and no whole-payload string is built here.
    """
    keys, size = g.keys, _CHUNK_ITEMS
    yield "graph dl {\n"
    rows = zip(keys, _height_labels(g.vertices))
    while chunk := "".join([f'  "{key}" [heights="{hs}"];\n' for key, hs in islice(rows, size)]):
        yield chunk
    pairs = edge_pairs(g)
    while chunk := "".join([f'  "{keys[i]}" -- "{keys[j]}";\n' for i, j in islice(pairs, size)]):
        yield chunk
    yield "}\n"


def json_payload(obj) -> str:
    """A JSON payload: sorted keys, no spaces, one final newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def json_chunks(g: BallGraph) -> Iterator[str]:
    """The JSON export of g as text chunks of up to _CHUNK_ITEMS edges or vertices each.

    "".join(json_chunks(g)) is the bytes json_payload would write for the
    graph: every chunk of a list but its first starts with the comma
    between items. Keys are in sorted order at every level: center, cube,
    edges, params, radius, vertices.
    Vertex keys and the center key come from tree_key and dl_key, which
    emit only digits, '-', ':', '=', ',' and '|', so no string needs JSON
    escaping.
    """
    p, size = g.params, _CHUNK_ITEMS
    head = "{"
    if g.center is not None:
        head += f'"center":"{dl_key(g.center)}",'
    if g.cube is not None:
        intervals = ",".join(f"[{a},{b}]" for a, b in g.cube.intervals)
        head += f'"cube":{{"intervals":[{intervals}],"k":{g.cube.k}}},'
    yield head + '"edges":['
    pairs, lead = edge_pairs(g), ""
    while chunk := ",".join([f"[{i},{j}]" for i, j in islice(pairs, size)]):
        yield lead + chunk
        lead = ","
    middle = f'],"params":{{"d":{p.d},"k":{p.k},"q":{p.q}}},'
    if g.center is not None:
        middle += f'"radius":{g.radius},'
    yield middle + '"vertices":['
    rows, lead = zip(g.keys, _height_labels(g.vertices)), ""
    while chunk := ",".join(
        [f'{{"heights":[{hs}],"key":"{key}"}}' for key, hs in islice(rows, size)]
    ):
        yield lead + chunk
        lead = ","
    yield "]}\n"


# ---------------------------------------------------------------------------
# exact distances


def _pair_signature(u: DLVertex, v: DLVertex) -> tuple:
    """Complete invariant of a vertex pair under graph automorphisms.

    Per coordinate, record both heights relative to the meet; tree
    automorphisms with height shifts summing to zero realize any two pairs
    with equal signatures, so distances only depend on this tuple.
    """
    sig = []
    for a, b in zip(u.coords, v.coords):
        m = meet_level(a, b)
        sig.append((a.level - m, b.level - m))
    return tuple(sig)


def _canonical_state(k: int, sig: tuple) -> tuple:
    """sig with the coordinates that play the same role sorted: all at k = 1, else 2..d."""
    lo = 0 if k == 1 else 1
    return sig[:lo] + tuple(sorted(sig[lo:]))


def dl_distance(u: DLVertex, v: DLVertex) -> int:
    """Exact graph distance: _distance of the pair signature in _canonical_state's order."""
    if u.params != v.params:
        raise ValueError("vertices live in different graphs")
    k = u.params.k
    return _distance(k, _canonical_state(k, _pair_signature(u, v)))


def _distance(k: int, state: tuple) -> int:
    """Distance from a canonical signature state to the goal, every pair (0, 0).

    At k = 1 on two coordinates it is Bertacchi's closed form ("Random walks
    on Diestel-Leader graphs", 2001), D = c1 + e1 + c2 + e2 - |c1 - e1|,
    read before any memo, cap or budget; elsewhere it is the search
    _state_distance.
    """
    if k == 1 and len(state) == 2:
        (c1, e1), (c2, e2) = state
        return c1 + e1 + c2 + e2 - abs(c1 - e1)
    return _state_distance(k, state)


@lru_cache(maxsize=DIST_CACHE_LIMIT)
def _state_distance(k: int, state: tuple) -> int:
    """Distance from a signature state to the goal, every pair (0, 0), by search; memoized.

    An A* search: it pops states by depth + _state_bound, deeper first on
    ties, so the goal's first pop is at its distance. It raises once that
    lower bound exceeds DEFAULT_DISTANCE_CAP, or before it stores more than
    DEFAULT_STATE_BUDGET states, both read when it runs; a raise caches nothing.
    The moves (_state_moves) build no graph vertex and do not depend on q.
    It serves every state, d = 2 and k = 1 included, though _distance asks
    it only where no closed form is known; the tests keep it as the
    closed form's oracle.
    """
    cap, budget = DEFAULT_DISTANCE_CAP, DEFAULT_STATE_BUDGET
    goal = ((0, 0),) * len(state)
    depths = {state: 0}
    heap = [(_state_bound(k, state), 0, state)]
    while True:  # the state graph is infinite, so the heap never empties
        f, neg_depth, s = heappop(heap)
        if -neg_depth > depths[s]:
            continue  # s was reached by a shorter path after this entry was pushed
        if f > cap:
            raise BudgetError(f"no path within distance cap {cap}: {_reached(f, depths)}")
        if s == goal:
            return -neg_depth
        depth = 1 - neg_depth
        for w in _state_moves(k, s):
            if depths.get(w, depth + 1) <= depth:
                continue
            if w not in depths and len(depths) >= budget:
                raise BudgetError(f"search exceeds budget {budget}: {_reached(f, depths)}")
            depths[w] = depth
            heappush(heap, (depth + _state_bound(k, w), -depth, w))


def _reached(f: int, depths: dict) -> str:
    return f"distance at least {f}, {len(depths)} states reached"


def _state_bound(k: int, state: tuple) -> int:
    """A lower bound on _state_distance that no move lowers by more than 1.

    For k > 1 it is ceil(sum of c / k) (_state_moves). At k = 1 it is the
    sum of c plus the deficit of a greedy schedule. Every climb must be
    paired with a descent elsewhere, and a descent is free only along a
    target line, below a meet already reached. Pairs with c = 0 absorb
    their e that way; a pair is visited by climbing its c, after which it
    absorbs its e, so it nets e - c. The schedule visits the pairs with
    e >= c by c ascending, then the rest by e descending, and the deficit
    is the most that one visit's c exceeds what is absorbed before it.
    The state is in _canonical_state's order, at k = 1 sorted by c, so one
    pass meets the c = 0 pairs first and the others by c ascending.

    Heights sum to 0 at both ends, so the sums of c and e are equal, and
    the bound is 0 only at the goal.
    """
    if k > 1:
        return -(-sum([c for c, _ in state]) // k)
    total = absorbed = deficit = 0
    losses = []
    for c, e in state:
        total += c
        if not c:
            absorbed += e
        elif c <= e:
            if c - absorbed > deficit:
                deficit = c - absorbed
            absorbed += e - c
        else:
            losses.append((-e, c))
    losses.sort()  # by e descending
    for minus_e, c in losses:
        if c - absorbed > deficit:
            deficit = c - absorbed
        absorbed -= minus_e + c
    return total + deficit


def _climb(pair: tuple, m: int) -> tuple:
    """tree_ancestor m levels up, on a pair: it passes the meet when c < m."""
    c, e = pair
    return (c - m, e) if c >= m else (0, e + m - c)


def _descents(pair: tuple, m: int) -> "list[tuple]":
    """tree_descendants m levels down, on a pair.

    A pair moves m further off, except from an ancestor of the target
    (c = 0): then it follows the target's line for t <= e of the steps and,
    when t < m, leaves it for the other m - t.
    """
    c, e = pair
    if c:
        return [(c + m, e)]
    out = [(m - t, e - t) for t in range(min(m, e + 1))]
    if m <= e:
        out.append((0, e - m))
    return out


def _state_moves(k: int, state: tuple) -> "list[tuple]":
    """Signature states one index-k edge away, each in _canonical_state's order.

    A state holds one pair (c, e) per coordinate: c is the current vertex's
    height above its meet with the target's coordinate, e the target's;
    the goal is every pair (0, 0). The moves follow _neighbor_coords. An
    ordinary move, among all coordinates at k = 1 and coordinates 2..d
    otherwise, sends one coordinate up a step, (c-1, e), or past the meet
    to (0, e+1) when c = 0; and another down a step: toward the target,
    (0, e-1), or off it, (1, e), when c = 0 < e, else (c+1, e). For k > 1
    the first coordinate then climbs k while the others descend along a
    composition of k, or descends k while they climb. Some tree move takes
    each branch for every q >= 2. Only climbs lower a c, so a move lowers
    the sum of c by at most k, and by at most 1 if ordinary (_state_bound).
    """
    lo = 0 if k == 1 else 1
    head, rest = state[:lo], state[lo:]
    out = []
    for i, (c, e) in enumerate(rest):
        up = (c - 1, e) if c else (0, e + 1)
        for j, (cj, ej) in enumerate(rest):
            if j == i:
                continue
            for down in ((0, ej - 1), (1, ej)) if cj == 0 < ej else ((cj + 1, ej),):
                nxt = list(rest)
                nxt[i] = up
                nxt[j] = down
                nxt.sort()
                out.append(head + tuple(nxt))
    if k == 1:
        return out
    combos = _compositions(k, len(rest))
    up_first = _climb(head[0], k)
    for combo in combos:
        out += ((up_first,) + tuple(sorted(ch)) for ch in product(*map(_descents, rest, combo)))
    for down in _descents(head[0], k):
        out += ((down,) + tuple(sorted(map(_climb, rest, combo))) for combo in combos)
    return out
