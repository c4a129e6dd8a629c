"""Enumerative oracles that the tests check the library against.

Each one states a rule a second way, on purpose, and no library code calls
it: adjacency as a test on a vertex pair, beside the neighbour lists of
`dlgraph._neighbor_coords`; graph distance by a bidirectional BFS over
vertices, beside the guided search over signature states of
`dlgraph.dl_distance`; box membership by tree ancestry, beside the box's
fibers; the tile box over a vertex, built from its ancestors, beside the
pool positions that `qilab.umap_positions` reads arithmetically (the tile
map itself is `enumerative_umap` in `test_qilab.py`); and the fiber of
an interior map as an explicit vertex list, beside the counts of
`qilab.preimage_count`; the group correspondence by expanding each element
at every place, beside the digit reader of `group._image_reader`; the
partial-fraction digits of a sum added place by place with `padd`, beside
the packed carry-free add of `group._word_step`; the
correspondence check on a keyed, key-sorted graph ball, beside the
coordinate-tuple search that `group.validate_correspondence` reads; and the
index-k checks on normal-form elements, with a `multiply` and a key per
step, beside the word-ball states of `group.index_check`; and the graph
exports as a line list per vertex and a `json.dumps` over a dict tree,
beside the direct text writers `dlgraph.dot_chunks` and `dlgraph.json_chunks`,
and the tile-map CSV by the csv module, beside the rows that `cli` writes
as text; and the distortion estimates from a list of every sampled ratio
and degenerate pair, beside the running maxima of `qilab.distortion`.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from array import array
from fractions import Fraction
from functools import partial

from dllab import group
from dllab.algebra import expand_local, padd, valuation
from dllab.dlgraph import (
    DEFAULT_VERTEX_BUDGET,
    Box,
    BudgetError,
    HeightCube,
    TreeVertex,
    _check_cube,
    _move_table,
    _neighbor_coords,
    ball,
    base_vertex,
    cube_contains,
    dl_distance,
    dl_key,
    dl_vertex,
    edge_pairs,
    expected_degree,
    graph_params,
    json_payload,
    rho,
    sphere_sizes,
    tree_ancestor,
    tree_descendants,
    tree_parent,
    tree_vertex,
)
from dllab.group import (
    cayley_ball,
    coset_index,
    correspondence_cutoffs,
    element_key,
    multiply,
    subgroup_membership,
)


def is_tree_ancestor(a, v) -> bool:
    return a.level <= v.level and tree_ancestor(v, a.level) == a


def dl_adjacent(u, v) -> bool:
    """Whether one edge joins u and v, decided from the pair alone."""
    if u.params != v.params or u == v:
        return False
    params = u.params
    d, k = params.d, params.k
    deltas = tuple(v.coords[i].level - u.coords[i].level for i in range(d))
    if sum(deltas) != 0:
        return False

    def plain_move(lo_idx: int) -> bool:
        # one coordinate down a step, one up a step, the rest fixed
        downs = [i for i in range(lo_idx, d) if deltas[i] == 1]
        ups = [i for i in range(lo_idx, d) if deltas[i] == -1]
        if len(downs) != 1 or len(ups) != 1:
            return False
        for i in range(d):
            if i == downs[0]:
                if tree_parent(v.coords[i]) != u.coords[i]:
                    return False
            elif i == ups[0]:
                if tree_parent(u.coords[i]) != v.coords[i]:
                    return False
            elif u.coords[i] != v.coords[i]:
                return False
        return True

    if k == 1:
        return plain_move(0)
    if deltas[0] == 0:
        return u.coords[0] == v.coords[0] and plain_move(1)
    if deltas[0] == -k:
        if any(x < 0 for x in deltas[1:]) or sum(deltas[1:]) != k:
            return False
        if tree_ancestor(u.coords[0], u.coords[0].level - k) != v.coords[0]:
            return False
        return all(is_tree_ancestor(u.coords[i], v.coords[i]) for i in range(1, d))
    if deltas[0] == k:
        if any(x > 0 for x in deltas[1:]) or -sum(deltas[1:]) != k:
            return False
        if tree_ancestor(v.coords[0], v.coords[0].level - k) != u.coords[0]:
            return False
        return all(is_tree_ancestor(v.coords[i], u.coords[i]) for i in range(1, d))
    return False


def vertex_distance(u, v, cap: int) -> int:
    """Bidirectional BFS over graph vertices, identified by coordinate tuples.

    The graph is undirected, so _meet_in_middle may grow either end. It
    shares no search code with `dlgraph._state_distance`, which runs from
    one end over signature states, guided by a lower bound.
    """
    step = partial(_neighbor_coords, _move_table(u.params))
    return _meet_in_middle(u.coords, v.coords, step, cap, DEFAULT_VERTEX_BUDGET, "vertices")


def _meet_in_middle(a, b, step, cap: int, budget: int, noun: str) -> int:
    """Distance from a to b in an undirected graph; exact and budgeted.

    step(x) lists the neighbours of the hashable node x. Each step grows
    the side with the smaller frontier by one level. Any hit found at total
    depth t is at distance exactly t, so the side chosen never changes the
    answer.
    """
    if a == b:
        return 0
    seen = ({a: 0}, {b: 0})
    fronts = [[a], [b]]
    depths = [0, 0]
    while depths[0] + depths[1] < cap and fronts[0] and fronts[1]:
        s = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        mine, other = seen[s], seen[1 - s]
        room = budget - len(other)
        depths[s] += 1
        nxt = []
        for x in fronts[s]:
            for w in step(x):
                hit = other.get(w)
                if hit is not None:
                    return depths[s] + hit
                if w not in mine:
                    if len(mine) >= room:
                        raise BudgetError(
                            f"search exceeds budget {budget}: searched depths "
                            f"{depths[0]} and {depths[1]}, {len(mine) + len(other)} "
                            f"{noun} reached"
                        )
                    mine[w] = depths[s]
                    nxt.append(w)
        fronts[s] = nxt
    raise BudgetError(
        f"no path within distance cap {cap}: searched depths {depths[0]} and "
        f"{depths[1]}, {len(seen[0]) + len(seen[1])} {noun} reached"
    )


def box_contains(params, box, x) -> bool:
    """Whether x lies over the box's cube and below each of its roots."""
    if x.params != params or not cube_contains(box.cube, rho(x)):
        return False
    return all(is_tree_ancestor(root, c) for root, c in zip(box.roots, x.coords))


def box_containing(params, cube, x) -> Box:
    """The box over cube whose roots are x's ancestors at the cube's corner."""
    _check_cube(params, cube)
    if not cube_contains(cube, rho(x)):
        raise ValueError("vertex heights are outside the cube")
    roots = [tree_ancestor(x.coords[i], a) for i, (a, _) in enumerate(cube.intervals)]
    roots.append(tree_ancestor(x.coords[-1], -sum(b for _, b in cube.intervals)))
    return Box(cube=cube, roots=tuple(roots))


def tile_box(tiling, x) -> Box:
    """The tile of a qilab tiling that holds x: the side-h cube over x's heights."""
    corners = []
    for a in rho(x):
        c = (a // tiling.h) * tiling.h
        corners.append((c, c + tiling.h - 1))
    return box_containing(tiling.params, HeightCube(tuple(corners), 1), x)


def vertices_in_clone(c, level: int, q: int) -> "list[TreeVertex]":
    """Materialize the vertices counted by qilab.count_vertices_in_clone."""
    if c.level <= level:
        return list(tree_descendants(c, level - c.level, q))
    if any(i > level for i, _ in c.digits):
        return []
    return [TreeVertex(level, c.digits)]


def preimage_vertices(imap, x) -> list:
    """Materialize the fiber over x (products of per-coordinate lists)."""
    q = imap.params.q
    per_coord = []
    for m, coord in zip(imap.maps, x.coords):
        found = []
        for c in m.clone_preimages(coord):
            found.extend(vertices_in_clone(c, coord.level, q))
        per_coord.append(sorted(set(found)))
    out = []
    for combo in itertools.product(*per_coord):
        out.append(dl_vertex(imap.params, combo))
    return out


def pf_add(x: tuple, y: tuple, q: int) -> tuple:
    """Partial-fraction digits of a + b from those of a and b: place-wise padd."""
    if len(x) != len(y):
        raise ValueError(f"digits of different rings: {len(x)} places against {len(y)}")
    out = list(x)
    for i, v in enumerate(y):
        if v:
            out[i] = padd(out[i], v, q) if out[i] else v
    return tuple(out)


def correspond_by_expansion(params, g, cut=None):
    """The image of g in DL_d(q), each place's digits from a fresh expansion of P.

    cut overrides the per-place cutoff offsets (default: the module's).
    """
    gp = graph_params(params.d, params.q, 1)
    cut = correspondence_cutoffs(params.d) if cut is None else cut
    levels = g.exps + (-sum(g.exps),)
    coords = []
    for place in range(1, params.d + 1):
        lvl = levels[place - 1]
        hi = lvl + cut[place - 1]
        digits = []
        if not g.P.is_zero():
            lo = valuation(g.P, place)
            if lo <= hi:
                digits = [
                    (e - cut[place - 1], val)
                    for e, val in zip(range(lo, hi + 1), expand_local(g.P, place, lo, hi))
                    if val
                ]
        coords.append(tree_vertex(lvl, digits, q=params.q))
    return dl_vertex(gp, coords)


def validate_correspondence_by_ball(params, radius):
    """group.validate_correspondence on a keyed, key-sorted graph ball.

    The graph side is a whole `ball()`: vertex keys, key positions and the
    encoded edge array, read back through `edge_pairs`. The image reader,
    the word ball and the other helpers are looked up in `group` when this
    runs, so a test that patches them patches both checks.
    """
    cayley_ends = array("q")
    found, depths = group._word_ball(params, radius, group.generators(params), cayley_ends)
    gb = ball(base_vertex(graph_params(params.d, params.q, 1)), radius)
    position = {c: p for p, c in enumerate(gb.vertices)}
    read = group._image_reader(params)
    failures = []

    def name(i: int) -> str:
        return element_key(group._element(params, found[i]))

    image = [None] * len(found)  # graph position of each element's image
    preimage = {}
    for i, (state, dep) in enumerate(zip(found, depths)):
        v = read(*state)
        p = position.get(v.coords)
        if p is None:
            failures.append(
                f"image of {name(i)} outside the radius-{radius} ball: {dl_key(v)}"
            )
        elif p in preimage:
            failures.append(
                f"not injective: {name(i)} and {name(preimage[p])} map to {gb.keys[p]}"
            )
        else:
            preimage[p] = i
            image[i] = p
            if gb.depths[p] != dep:
                failures.append(
                    f"word length {dep} versus graph distance {gb.depths[p]} for {name(i)}"
                )

    # each graph edge, and whether no Cayley edge has been mapped onto it
    unmapped = dict.fromkeys(edge_pairs(gb), True)
    it = iter(cayley_ends)
    for i, j in zip(it, it):
        a, b = image[i], image[j]
        if a is None or b is None:
            continue  # an endpoint has already failed
        e = (a, b) if a < b else (b, a)
        if e in unmapped:
            unmapped[e] = False
        else:
            failures.append(f"edge {name(i)} -> {name(j)} not preserved")
    failures += [
        f"graph edge {gb.keys[a]} -- {gb.keys[b]} has no preimage"
        for (a, b), left in unmapped.items()
        if left
    ]

    return group.CorrespondenceReport(
        params=params,
        radius=radius,
        ok=not failures,
        sphere_group=tuple(map(depths.count, range(radius + 1))),
        sphere_graph=sphere_sizes(gb),
        interior_degree=expected_degree(graph_params(params.d, params.q)),
        failures=tuple(failures[:20]),
        failure_count=len(failures),
    )


def index_check_by_elements(params, k):
    """group.index_check's (cosets, positives, covered), on keyed elements.

    One ambient Cayley ball gives the cosets (its depth <= k part) and the
    membership positives (its depth <= 3 part); a positive g is covered
    when its key, or that of some g·s, is in the depth-2 subgroup ball.
    The generators come from group.subgroup_generators, looked up when
    this runs.
    """
    amb = cayley_ball(params, max(k, 3))
    cosets = {coset_index(g, k) for g, dep in zip(amb.elements, amb.depths) if dep <= k}
    positives = [
        (key, g)
        for key, g, dep in zip(amb.keys, amb.elements, amb.depths)
        if dep <= 3 and subgroup_membership(g, k)
    ]
    gens = group.subgroup_generators(params, k)
    sub_keys = set(cayley_ball(params, 2, gens=gens).keys)
    covered = all(
        key in sub_keys or any(element_key(multiply(g, s)) in sub_keys for s in gens)
        for key, g in positives
    )
    return cosets, len(positives), covered


def export_dot_by_lines(g) -> str:
    """The DOT export, one line built per vertex and per edge."""
    lines = ["graph dl {"]
    for key, coords in zip(g.keys, g.vertices):
        hs = ",".join(str(c.level) for c in coords)
        lines.append(f'  "{key}" [heights="{hs}"];')
    for i, j in edge_pairs(g):
        lines.append(f'  "{g.keys[i]}" -- "{g.keys[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json_by_dumps(g) -> str:
    """The JSON export, a dict tree written by json_payload."""
    payload = {
        "params": {"d": g.params.d, "q": g.params.q, "k": g.params.k},
        "vertices": [
            {"key": key, "heights": [c.level for c in coords]}
            for key, coords in zip(g.keys, g.vertices)
        ],
        "edges": [list(e) for e in edge_pairs(g)],
    }
    if g.center is not None:
        payload["center"] = dl_key(g.center)
        payload["radius"] = g.radius
    if g.cube is not None:
        payload["cube"] = {
            "intervals": [list(iv) for iv in g.cube.intervals],
            "k": g.cube.k,
        }
    return json_payload(payload)


def umap_csv_by_writer(rows) -> str:
    """The tile-map CSV, written by the csv module from (key, image key, displacement) rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "image_key", "displacement"])
    writer.writerows(rows)
    return buf.getvalue()


def distortion_by_lists(table: dict, n_pairs: int, seed: int) -> "tuple[Fraction, Fraction]":
    """(K, C) of `qilab.distortion`'s sample, from lists of the ratios and degenerate pairs.

    K is the largest of d'/d and d/d' over the pairs with both distances
    positive (1 when there is none), and C the largest slack
    max(d' - K d, d / K - d') over the others, at least 0.
    """
    items = list(table.items())
    rng = random.Random(seed)
    ratios, degenerate = [], []
    for _ in range(n_pairs):
        i, j = rng.sample(range(len(items)), 2)
        (u, fu), (v, fv) = items[i], items[j]
        ds, dt = dl_distance(u, v), dl_distance(fu, fv)
        if ds > 0 and dt > 0:
            ratios += [Fraction(dt, ds), Fraction(ds, dt)]
        else:
            degenerate.append((ds, dt))
    k = max(ratios) if ratios else Fraction(1)
    c = max([Fraction(0)] + [max(dt - k * ds, ds / k - dt) for ds, dt in degenerate])
    return k, c
