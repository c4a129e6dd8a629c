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
from a center is (h_1(v) - h_1(center)) / k mod 2, no edge joins two
vertices of one sphere, and a d = 2 ball makes no outer-sphere pass. At
d >= 3 it lists that sphere's edges by one _induced_edges pass with the
half step, as a word ball (group._word_ball) does.

Boxes are the connected components of preimages of height cubes under the
height map; each fiber over a cube point is a product of descendant sets,
so all counting here is exact. Aligned boxes of a common side tile a box,
which is the geometric input for the index-k comparison map.

Each ball keeps its own table of tree moves, one shape for every k: per
tree vertex and m in 0..k, its descendants m levels down and its ancestor
m levels up (its children and parent at m = 1), each built on first use.
Many graph vertices share a tree coordinate, so each move is built once
per ball; the table is dropped when the ball returns. A box graph keeps
none: its members are products of descendant pools, so it finds each
edge's endpoints by their pool positions (box_graph).

Exact distances, for every k, are found by a search over per-coordinate
heights above the meets, which builds no graph vertex and does not depend
on q, and are memoized on those height signatures by _state_distance's
lru_cache. One move rule, _state_moves, serves every k, in the order of
_neighbor_coords.

Every search limit (vertex budget, edge budget, distance cap, state
budget) is a module constant that the search reads when it runs. The
vertex budget bounds every ball, graph or word (_layered_bfs), and every
list whose length has a closed form, checked by _within_budget before it
is built: a box's members, a cube's points, a vertex's neighbours
(_check_degree), and in qilab a fiber's descendant walk and a probe window.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from functools import lru_cache, partial
from heapq import heappop, heappush
from itertools import chain, islice, product, repeat
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

# n * q**e is built only while 2**low <= 2**_PRINTED_BITS, a count of 4,215 digits
_PRINTED_BITS = 14_000


def _within_budget(n: int, subject: str, q: int = 2, e: int = 0) -> int:
    """n * q**e, the length of a list about to be built, once within the vertex budget.

    The budget is read when called. subject names the list, with {} where
    its length goes. With e > 0 a caller passes n >= 1 and q >= 2, so
    2**low <= n * q**e, and a length whose low passes _PRINTED_BITS is
    refused before q**e is built. The message writes a length in digits
    when it has at most _PRINTED_BITS bits and str() can print it
    (_prints), and as at least 2**low otherwise.
    """
    low = n.bit_length() - 1 + e * (q.bit_length() - 1)
    if low <= _PRINTED_BITS:
        n *= q**e
        if n <= DEFAULT_VERTEX_BUDGET:
            return n
        low = n.bit_length() - 1
    count = n if low <= _PRINTED_BITS and _prints(n) else f"at least 2^{low}"
    raise BudgetError(f"{subject.format(count)}, budget {DEFAULT_VERTEX_BUDGET}")


def _prints(n: int) -> bool:
    """Whether str() can print n: |n| < 10**limit, limit read when called (0 for none).

    Any |n| < 8**limit passes without building 10**limit.
    """
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10**limit


def _printable(n: int, what: str) -> int:
    """n, an integer about to be printed, once str() can print it (_prints); what names it."""
    if not _prints(n):
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} has more than {limit} digits, the limit for printing an integer")
    return n


def _printable_size(n: int, h: int, noun: str = "box size") -> int:
    """n, a count printed for side h, once str() can print it (_printable)."""
    return _printable(n, f"side {h}: {noun}")


class GraphParams(NamedTuple):
    d: int
    q: int
    k: int = 1


def graph_params(d: int, q: int, k: int = 1) -> GraphParams:
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if not isinstance(k, int) or k < 1:
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


def heights(v: DLVertex) -> "tuple[int, ...]":
    return tuple(c.level for c in v.coords)


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

    The degree is at least 2 * q**k, so a q**k too long to print is
    refused before it is built.
    """
    if params.k * (params.q.bit_length() - 1) >= _PRINTED_BITS:
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
    program reads its pools from a box's _pool_table; these, built from
    the root, are box_members' plain reference.
    """
    depths = _fiber_depths(box, point)
    return [tuple(tree_descendants(r, depth, params.q)) for r, depth in zip(box.roots, depths)]


def box_fiber_size(params: GraphParams, box: Box, point: Sequence[int]) -> int:
    """q**depth descendants per coordinate, so q**(total depth) members."""
    return params.q ** sum(_fiber_depths(box, point))


def box_members(params: GraphParams, box: Box) -> Iterator[DLVertex]:
    """The members in _box_listing's build order, with no key, sort or budget check.

    Each fiber is the product of its pools (fiber_pools)."""
    for point in cube_points(box.cube):
        for coords in product(*fiber_pools(params, box, point)):
            yield DLVertex(params, coords)


def box_size(params: GraphParams, box: Box) -> int:
    """Every fiber has q**((d-1)*side) members, so this is O(d).

    The roots sit at the cube's lower corner and at minus its upper corner
    sum, so the depths below them sum to (d-1)*side at every cube point.
    """
    return cube_size(box.cube) * params.q ** ((params.d - 1) * cube_side(box.cube))


def _check_box(params: GraphParams, box: Box) -> int:
    """box_size, once within the vertex budget; a fiber size too long to print is not built."""
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
    _check_cube(params, box.cube)
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

    Balls carry center, radius, and BFS depths; box slices carry their cube
    instead. Vertices are sorted by canonical key, so equal inputs always
    produce byte-identical exports. edges is one sorted array('q') holding
    an edge between key positions i < j as the code i*n + j, n the vertex
    count, so code order is (i, j) order. _edge_array writes that format
    and edge_pairs reads it; no other code knows it.
    """

    params: GraphParams
    vertices: tuple
    keys: tuple
    edges: array
    center: Optional[DLVertex] = None
    radius: Optional[int] = None
    depths: Optional[tuple] = None
    cube: Optional[HeightCube] = None


def _edge_array(n: int, pos: Sequence[int], pairs: Iterable) -> array:
    """BallGraph.edges of n vertices, for the edges (a, b) in pairs.

    a and b are ids that pos maps to key positions. The codes are sorted
    in place, since sorted() would hold a second list of them.
    """
    codes = []
    push = codes.append
    for a, b in pairs:
        a, b = pos[a], pos[b]
        push(a * n + b if a < b else b * n + a)
    codes.sort()
    return array("q", codes)


def edge_pairs(g: BallGraph) -> Iterator["tuple[int, int]"]:
    """The edges of g as key-position pairs (i, j), i < j, in sorted order."""
    return map(divmod, g.edges, repeat(len(g.keys)))


# Inside one GraphParams a vertex is identified by its coordinate tuple,
# which is what the graph searches run on; the dl_key string is built once
# per distinct vertex, to sort the vertices and label them for export, from
# tree keys built once per distinct tree vertex (a ball) or pool member (a
# box's _pool_table), since many vertices share a coordinate.


def _induced_edges(nodes, index, half_step, start: int = 0) -> array:
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


def _layered_bfs(start, radius: int, step, noun: str, edges=None, half_step=None):
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

    It stores at most DEFAULT_VERTEX_BUDGET nodes, read when it runs, for
    graph balls and word balls alike; noun names the nodes in the error.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    budget = DEFAULT_VERTEX_BUDGET
    found = [start]
    ids = {start: 0}
    depths = [0]
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
                    if len(found) > budget:
                        raise BudgetError(
                            f"ball of radius {radius} exceeds budget {budget}: "
                            f"{len(found)} {noun} reached at depth {depth}"
                        )
                # an edge is recorded from its endpoint with the smaller id
                if push is not None and i < j:
                    push(i)
                    push(j)
        begin = stop
    if edges is not None and half_step is not None:
        edges += _induced_edges(found, ids, half_step, begin)
    return found, ids, depths


def ball(center: DLVertex, radius: int) -> BallGraph:
    """The ball of the given radius around center, with its induced edges.

    The BFS (_layered_bfs) appends edge ends to a flat array; its node
    index is dropped, with the move table, before the vertex keys are built,
    and the ends, read two at a time, are then encoded (_edge_array).
    """
    ends = array("q")
    step = partial(_neighbor_coords, _move_table(center.params))
    # at d = 2 no edge joins two vertices of one sphere (module docstring)
    half_step = partial(step, half=True) if center.params.d > 2 else None
    found, ids, found_depth = _layered_bfs(center.coords, radius, step, "vertices", ends, half_step)
    del step, half_step, ids  # drops the move table and node index before the vertices are keyed
    found = [DLVertex(center.params, c) for c in found]
    tree_keys = LazyDict(tree_key)
    keys = ["|".join(map(tree_keys.__getitem__, v.coords)) for v in found]
    order, pos = _key_order(keys)
    it = iter(ends)
    return BallGraph(
        params=center.params,
        vertices=tuple(found[i] for i in order),
        keys=tuple(keys[i] for i in order),
        edges=_edge_array(len(found), pos, zip(it, it)),
        center=center,
        radius=radius,
        depths=tuple(found_depth[i] for i in order),
    )


def _key_order(keys: list) -> "tuple[list[int], list[int]]":
    """(order, pos): order[p] is the index of the p-th smallest key, and pos[order[p]] = p."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    return order, pos


class _PoolTable(NamedTuple):
    """A box's pools, keyed by (coordinate, depth), each built on first use.

    vertices[i, depth] lists the tree vertices depth levels below root i in
    digit order, as tree_descendants does, and keys[i, depth] their
    tree_key texts. By the position rule, child b of position t is at
    t*q + b one level down, so each depth is built from the depth above:
    a child's digits are its parent's with at most one (level, b) appended,
    and its digit text is its parent's with at most one "level=b"
    concatenated. The fibers of a box share these pools, so each is built
    once per box, and the table is dropped with the listing.
    """

    vertices: LazyDict
    keys: LazyDict


def _pool_table(params: GraphParams, box: Box) -> _PoolTable:
    """An empty pool table for box (_PoolTable); nothing is built until read."""
    q, roots = params.q, box.roots

    def vertices(at):
        i, depth = at
        if not depth:
            return (roots[i],)
        n = roots[i].level + depth
        steps = ((),) + tuple(((n, b),) for b in range(1, q))
        return tuple([TreeVertex(n, v.digits + s) for v in vertices_of[i, depth - 1] for s in steps])

    def digit_texts(at):
        i, depth = at
        if not depth:
            return [tree_key(roots[i]).partition(":")[2]]
        n = roots[i].level + depth
        above = digit_texts_of[i, depth - 1]
        steps = [""] + [f",{n}={b}" for b in range(1, q)]
        out = [text + s for text in above for s in steps]
        if not above[0]:  # only the all-zero position has no digits; its children's begin here
            out[1:q] = [s[1:] for s in steps[1:]]
        return out

    def keys(at):
        prefix = f"{roots[at[0]].level + at[1]}:"
        return [prefix + text for text in digit_texts_of[at]]

    vertices_of, digit_texts_of = LazyDict(vertices), LazyDict(digit_texts)
    return _PoolTable(vertices_of, LazyDict(keys))


class _BoxListing(NamedTuple):
    """A box's members, listed once (_box_listing): their keys and how to reach them."""

    keys: tuple
    offsets: dict
    order: list
    pos: list
    pools: _PoolTable


def _box_listing(params: GraphParams, box: Box) -> _BoxListing:
    """(keys, offsets, order, pos, pools): the member keys of a box, in key order.

    A member's build id is the offset of its cube point, offsets[point],
    plus a mixed-radix number over its pool positions, the last coordinate
    fastest: box_members' order. order and pos map key-sorted positions to
    build ids and back (_key_order). The closed-form size is checked
    against the vertex budget before the pool table (_pool_table) is made.
    A fiber's member keys are the products of its pools' keys; no member
    is built as a vertex here (_listed_members does that).
    """
    _check_box(params, box)
    pools = _pool_table(params, box)
    keys, offsets = [], {}
    for point in cube_points(box.cube):
        offsets[point] = len(keys)
        keys += map("|".join, product(*[pools.keys[at] for at in enumerate(_fiber_depths(box, point))]))
    order, pos = _key_order(keys)
    return _BoxListing(tuple(map(keys.__getitem__, order)), offsets, order, pos, pools)


def _listed_members(params: GraphParams, box: Box, listing: _BoxListing) -> tuple:
    """The members of a box as DLVertexes, in its listing's key order.

    The one builder of box members as vertices: each fiber is the product
    of its pools' vertices, in build order, then sorted by listing.order.
    """
    members = []
    for point in listing.offsets:
        pools = [listing.pools.vertices[at] for at in enumerate(_fiber_depths(box, point))]
        members += (DLVertex(params, coords) for coords in product(*pools))
    return tuple(map(members.__getitem__, listing.order))


def _half_move_vectors(d: int, k: int) -> "list[tuple[int, ...]]":
    """Per-coordinate level changes of the half moves, in _neighbor_coords' half order.

    +1 on i and -1 on j for each ordinary pair i < j (from the second
    coordinate on when k > 1), then for k > 1 the first coordinate climbing
    k while the others descend along each composition of k.
    """
    lo = 0 if k == 1 else 1
    out = []
    for i in range(lo, d - 1):
        for j in range(i + 1, d):
            vec = [0] * d
            vec[i], vec[j] = 1, -1
            out.append(tuple(vec))
    if k > 1:
        out += ((-k,) + combo for combo in _compositions(k, d - 1))
    return out


def _position_moves(q: int, depth: int, change: int) -> "list[tuple[int, int]]":
    """(t, t') for each pool position t at depth and each tree move by change levels.

    By tree_descendants' position rule, staying keeps t, descending m
    levels goes to t * q**m + r for each r < q**m, and climbing m goes to
    t // q**m.
    """
    size = q**depth
    if change > 0:
        fan = q**change
        return [(t, t * fan + r) for t in range(size) for r in range(fan)]
    step = q**-change
    return [(t, t // step) for t in range(size)]


def box_graph(params: GraphParams, box: Box) -> BallGraph:
    """Induced subgraph on the members of a box.

    Edges are found by index arithmetic over the fiber pools
    (_box_edge_batches), as pairs of member build ids (_box_listing), and
    encoded in key order (_edge_array) as they come, one batch at a time.
    """
    deg = _check_degree(params)
    n = _check_box(params, box)
    # a member has at most deg neighbours
    bound = deg * n // 2
    if bound > DEFAULT_EDGE_BUDGET:
        raise BudgetError(f"box graph may hold {bound} edges, budget {DEFAULT_EDGE_BUDGET}")
    listing = _box_listing(params, box)
    vertices = _listed_members(params, box, listing)
    keys, offsets, pos = listing.keys, listing.offsets, listing.pos
    del listing  # drops the pool table's key texts before the edge pass
    pairs = chain.from_iterable(_box_edge_batches(params, box, offsets))
    return BallGraph(
        params=params,
        vertices=vertices,
        keys=keys,
        edges=_edge_array(len(keys), pos, pairs),
        cube=box.cube,
    )


def _box_edge_batches(params: GraphParams, box: Box, offsets: dict) -> Iterator[list]:
    """The edges of a box as lists of build-id pairs, one list per cube point and half move.

    For each cube point and half move (_half_move_vectors) whose target
    point is in the cube, the edges are the product over coordinates of the
    moves of pool positions (_position_moves), folded into pairs of member
    build ids: offsets[point] plus a mixed-radix number over the pool
    positions, the last coordinate fastest (_box_listing).
    """
    q, d = params.q, params.d
    vectors = _half_move_vectors(d, params.k)
    for point, offset in offsets.items():
        depths = _fiber_depths(box, point)
        for vec in vectors:
            target = offsets.get(tuple(map(int.__add__, point, vec)))
            if target is None:
                continue
            pairs = [(offset, target)]
            src_stride = tgt_stride = 1
            for c in range(d - 1, -1, -1):
                depth, change = depths[c], vec[c]
                moves = [
                    (t * src_stride, u * tgt_stride) for t, u in _position_moves(q, depth, change)
                ]
                pairs = [(a + t, b + u) for a, b in pairs for t, u in moves]
                src_stride *= q**depth
                tgt_stride *= q ** (depth + change)
            yield pairs


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
    """Each vertex's heights as "h_1,...,h_d", in the order given.

    The text is built once per distinct height tuple, since all members of
    a fiber, and many vertices of a ball, share one. A TreeVertex is a
    tuple whose first field is its level, so next(zip(*coords)) is the
    height tuple.
    """
    label = LazyDict(lambda hs: ",".join(map(str, hs)))
    return (label[next(zip(*v.coords))] for v in vertices)


# items per chunk of a graph export, so that a chunk's text and the list of
# item strings its join holds stay a few hundred kB at most
_CHUNK_ITEMS = 2048


def dot_chunks(g: BallGraph) -> Iterator[str]:
    """The DOT export of g as text chunks of up to _CHUNK_ITEMS lines each.

    The chunks concatenate to export_dot(g); no list of all the lines and
    no whole-payload string is built.
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


def export_dot(g: BallGraph) -> str:
    return "".join(dot_chunks(g))


def json_payload(obj) -> str:
    """A JSON payload: sorted keys, no spaces, one final newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def json_chunks(g: BallGraph) -> Iterator[str]:
    """The JSON export of g as text chunks of up to _CHUNK_ITEMS edges or vertices each.

    The chunks concatenate to export_json(g): every chunk of a list but
    its first starts with the comma between items. Keys are in sorted
    order at every level: center, cube, edges, params, radius, vertices.
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


def export_json(g: BallGraph) -> str:
    """The bytes json_payload writes for the graph, written as text directly (json_chunks)."""
    return "".join(json_chunks(g))


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
    """Exact graph distance, by a search over signature states; memoized.

    The state is the pair signature in _canonical_state's order. The moves
    (_state_moves) build no graph vertex and do not depend on q, so the
    answer is _state_distance's for (k, state).
    """
    if u.params != v.params:
        raise ValueError("vertices live in different graphs")
    k = u.params.k
    return _state_distance(k, _canonical_state(k, _pair_signature(u, v)))


@lru_cache(maxsize=DIST_CACHE_LIMIT)
def _state_distance(k: int, state: tuple) -> int:
    """Distance from a signature state to the goal, every pair (0, 0).

    An A* search: it pops states by depth + _state_bound, deeper first on
    ties, so the goal's first pop is at its distance. It raises once that
    lower bound exceeds DEFAULT_DISTANCE_CAP, or before it stores more than
    DEFAULT_STATE_BUDGET states, both read when it runs; a raise caches nothing.
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
