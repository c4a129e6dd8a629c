"""Quasi-isometry laboratory for Diestel-Leader graphs.

This module builds the comparison maps studied at desk scale and checks
their metric and measure behavior exactly:

* boundary transducers: finitely supported rewriting maps on one-sided
  digit streams, composed from three primitives (index shifts, per-level
  digit permutations, and windowed prefix rewrites).  Every primitive is a
  bijection of stream space and maps each clone (cylinder set) to an exact
  finite union of clones, so measure ratios and preimage counts come out
  as exact rationals, never floats;
* interior maps: one boundary transducer per tree coordinate, sending
  each coordinate to the image of its zero-fill stream read at its own
  height.  Fibers over a vertex are counted exactly, coordinate by
  coordinate;
* fiber-count audits: two-sided bounds on the total preimage mass over a
  box in terms of the box size, its r-boundary, and the transducers'
  measure scalars;
* chain scans: the additive obstruction sums (fiber count minus a target
  integer, summed over a box) that separate maps admitting a bounded
  correction from maps forcing boundary-rate divergence.  Chain and audit
  totals are computed per coordinate, never member by member;
* tile maps: the exactly k-to-1 map from the ordinary lattice onto the
  index-k sublattice built from a cube tiling, relabelling digits one
  fiber of the ambient box at a time, plus displacement and distortion
  estimates.

A clone is the set of all streams agreeing with given digits at every
index up to a level, which is the set of ends below the tree vertex with
that height and those digits; so a clone *is* a `dlgraph.TreeVertex`, one
named tuple (level, digits) that also compares equal to the plain pair.
A clone at level n has measure q**(-n) in the standard ultrametric
measure normalized so the level-0 clone over the empty digit assignment
has measure 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .dlgraph import (
    Box,
    DLVertex,
    GraphParams,
    HeightCube,
    RegionAlignmentError,
    TreeVertex,
    _within_budget,
    box_boundary_size,
    box_size,
    canonical_box,
    cube_boundary,
    cube_points,
    cube_side,
    dl_distance,
    fiber_levels,
    fiber_pools,
    meet_level,
    rho,
    side_box,
    sorted_box_members,
    tree_ancestor,
    tree_descendants,
)


# ---------------------------------------------------------------------------
# clones: cylinder sets of digit streams

def clone_measure(c: TreeVertex, q: int) -> Fraction:
    return Fraction(q) ** (-c.level)


def count_vertices_in_clone(c: TreeVertex, level: int, q: int) -> int:
    """How many level-`level` tree vertices have their zero-fill stream in c.

    The zero-fill stream of a vertex at level v carries the vertex digits
    at indices <= v and zeros above.  If the clone level u is <= v the
    clone pins the first u digits and leaves q choices for each of the
    remaining v - u, giving q**(v-u) vertices.  If u > v, membership
    forces the clone digits at indices in (v, u] to vanish; when they do,
    exactly one vertex (the truncation of the clone digits) qualifies.
    """
    u, digits = c
    if u <= level:
        return q ** (level - u)
    if any(i > level for i, _ in digits):
        return 0
    return 1


# ---------------------------------------------------------------------------
# transducer primitives

@dataclass(frozen=True)
class Shift:
    """Translate every digit index by m (stream index i reads input i - m).

    Scales the clone measure by q**(-m) and stream distances by the same
    factor, hence contributes q**(-m) to the measure scalar and q**|m| to
    the bilipschitz constant.
    """

    m: int

    def lam(self, q: int) -> Fraction:
        return Fraction(q) ** (-self.m)

    def bilip(self, q: int) -> int:
        return q ** abs(self.m)

    def inverse(self) -> "Shift":
        return Shift(-self.m)

    def clone_images(self, c: TreeVertex) -> "list[TreeVertex]":
        level, digits = c
        return [TreeVertex(level + self.m, tuple((i + self.m, v) for i, v in digits))]

    def check_alphabet(self, q: int) -> None:
        pass

    def describe(self) -> dict:
        return {"kind": "shift", "m": self.m}


@dataclass(frozen=True)
class LevelPerm:
    """Permute the digit alphabet independently at finitely many indices.

    perms is a sorted tuple of (index, table) pairs where table is a
    tuple of length q listing the image of each digit.  Measure scalar 1,
    bilipschitz constant 1.
    """

    perms: tuple

    def __post_init__(self):
        seen = set()
        for lvl, table in self.perms:
            if lvl in seen:
                raise ValueError(f"duplicate permuted index {lvl}")
            seen.add(lvl)
            if sorted(table) != list(range(len(table))):
                raise ValueError(f"table at index {lvl} is not a permutation")
        if tuple(sorted(self.perms)) != self.perms:
            raise ValueError("perms must be sorted by index")

    def lam(self, q: int) -> Fraction:
        return Fraction(1)

    def bilip(self, q: int) -> int:
        return 1

    def inverse(self) -> "LevelPerm":
        inv = []
        for lvl, table in self.perms:
            itab = [0] * len(table)
            for a, b in enumerate(table):
                itab[b] = a
            inv.append((lvl, tuple(itab)))
        return LevelPerm(tuple(inv))

    def clone_images(self, c: TreeVertex) -> "list[TreeVertex]":
        # each permuted index the clone pins maps by its table; the
        # clone's free indices stay free
        level, digits = c
        out = dict(digits)
        for lvl, table in self.perms:
            if lvl <= level:
                nv = table[out.get(lvl, 0)]
                if nv:
                    out[lvl] = nv
                else:
                    out.pop(lvl, None)
        return [TreeVertex(level, tuple(sorted(out.items())))]

    def source_span(self):
        """The lowest and highest permuted index; None when nothing is permuted."""
        if not self.perms:
            return None
        return (self.perms[0][0], self.perms[-1][0])

    def check_alphabet(self, q: int) -> None:
        for lvl, table in self.perms:
            if len(table) != q:
                raise ValueError(
                    f"perm table at index {lvl} has {len(table)} digits, alphabet has {q}"
                )

    def describe(self) -> dict:
        return {
            "kind": "perm",
            "perms": [{"index": lvl, "table": list(t)} for lvl, t in self.perms],
        }


@dataclass(frozen=True)
class PrefixRewrite:
    """Rewrite the digit window [lo, hi] through a bijection of words.

    table maps every length-(hi - lo + 1) digit word over {0, ..., q-1} to
    an image word of the same length; digits outside the window pass
    through unchanged.  The alphabet size q is implicit in the table.
    Measure scalar 1; bilipschitz constant q**(hi - lo) since a first
    difference inside the window can move anywhere else inside it.
    """

    lo: int
    hi: int
    table: tuple  # sorted tuple of (word, image) pairs covering all words

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty rewrite window")
        width = self.hi - self.lo + 1
        ins = [w for w, _ in self.table]
        outs = [w for _, w in self.table]
        if len(set(ins)) != len(ins) or sorted(set(outs)) != sorted(ins):
            raise ValueError("table is not a bijection of window words")
        for w in ins + outs:
            if len(w) != width:
                raise ValueError("table word of wrong length")
        if tuple(sorted(self.table)) != self.table:
            raise ValueError("table must be sorted by input word")
        if not ins or ins != list(itertools.product(range(self._q()), repeat=width)):
            raise ValueError("table does not cover a full power alphabet")

    def _q(self) -> int:
        # the sorted table ends with the word of all top digits q - 1
        return self.table[-1][0][0] + 1

    def lam(self, q: int) -> Fraction:
        return Fraction(1)

    def bilip(self, q: int) -> int:
        return q ** (self.hi - self.lo)

    def inverse(self) -> "PrefixRewrite":
        return PrefixRewrite(
            self.lo, self.hi, tuple(sorted((img, w) for w, img in self.table))
        )

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.table)

    def _rewrite(self, digits) -> dict:
        """A clone's (index, digit) pairs as a dict, the window word replaced by its image."""
        window = range(self.lo, self.hi + 1)
        out = dict(digits)
        image = self._lookup[tuple(out.pop(i, 0) for i in window)]
        out.update((i, dv) for i, dv in zip(window, image) if dv)
        return out

    def clone_images(self, c: TreeVertex) -> "list[TreeVertex]":
        # a clone above lo leaves every window digit free, and the bijection
        # permutes those, so it maps onto itself; a clone inside the window
        # splits into its subclones at level hi, one per completion of the
        # missing digits, and each rewrites to one exact clone
        if c.level < self.lo:
            return [c]
        parts = [c] if c.level >= self.hi else tree_descendants(c, self.hi - c.level, self._q())
        return [
            TreeVertex(level, tuple(sorted(self._rewrite(digits).items())))
            for level, digits in parts
        ]

    def source_span(self):
        return (self.lo, self.hi)

    def check_alphabet(self, q: int) -> None:
        if self._q() != q:
            raise ValueError(
                f"prefix table is over {self._q()} digits, alphabet has {q}"
            )

    def describe(self) -> dict:
        return {
            "kind": "prefix",
            "lo": self.lo,
            "hi": self.hi,
            "table": [[list(w), list(img)] for w, img in self.table],
        }


def prefix_rewrite(lo: int, hi: int, pairs) -> PrefixRewrite:
    """Build a PrefixRewrite from any iterable of (word, image) pairs."""
    table = tuple(sorted((tuple(w), tuple(img)) for w, img in pairs))
    return PrefixRewrite(lo, hi, table)


def level_perm(perms) -> LevelPerm:
    return LevelPerm(tuple(sorted((int(lvl), tuple(t)) for lvl, t in perms)))


# ---------------------------------------------------------------------------
# boundary maps: composed transducers

@dataclass(frozen=True)
class BoundaryMap:
    """A finite composition of primitives, applied left to right.

    Every primitive's tables must be over the digit alphabet {0, ..., q-1};
    construction raises ValueError otherwise.
    """

    q: int
    prims: tuple

    def __post_init__(self):
        for p in self.prims:
            p.check_alphabet(self.q)

    def lam(self) -> Fraction:
        """Exact measure scalar: images of clones shrink by this factor."""
        out = Fraction(1)
        for p in self.prims:
            out *= p.lam(self.q)
        return out

    def bilip(self) -> int:
        """A bilipschitz constant for the stream ultrametric (not sharp)."""
        out = 1
        for p in self.prims:
            out *= p.bilip(self.q)
        return out

    def inverse(self) -> "BoundaryMap":
        return BoundaryMap(self.q, tuple(p.inverse() for p in reversed(self.prims)))

    @cached_property
    def _inverse(self) -> "BoundaryMap":
        return self.inverse()

    def clone_images(self, c: TreeVertex) -> "list[TreeVertex]":
        clones = [c]
        for p in self.prims:
            clones = [c2 for c1 in clones for c2 in p.clone_images(c1)]
        return clones

    def clone_preimages(self, c: TreeVertex) -> "list[TreeVertex]":
        """Clones partitioning the preimage of c.

        They are c's clone images under the inverse map, built once per map.
        """
        return self._inverse.clone_images(c)

    def vertex_image(self, c: TreeVertex) -> TreeVertex:
        """The image of the tree vertex c: its zero-fill stream's image, read at c's height.

        That stream (c's digits, zeros above c.level) lies in the clone of
        c's digits at every level n >= c.level.  From n at the top of the
        source span on, no prefix stage splits that clone; from
        n >= c.level - S on, S the sum of the shift amounts, its one image
        clone reaches c's height.  The image's ancestor there is the answer.
        """
        shift = sum(p.m for p in self.prims if isinstance(p, Shift))
        span = self.source_span()
        n = max(c.level, c.level - shift, c.level if span is None else span[1])
        [image] = self.clone_images(TreeVertex(n, c.digits))
        return tree_ancestor(image, c.level)

    def source_span(self):
        """Index range of the input digits that structural stages read.

        Shifts are pure translations and contribute no structure, nor does
        a perm that permutes no index; for the other primitives the touched
        input indices are their levels pulled back through the shifts
        applied so far.  Returns None for maps whose behavior is
        index-uniform (shifts and empty perms only).
        """
        lo = hi = None
        s = 0
        for p in self.prims:
            if isinstance(p, Shift):
                s += p.m
                continue
            span = p.source_span()
            if span is None:
                continue
            a, b = span[0] - s, span[1] - s
            lo = a if lo is None else min(lo, a)
            hi = b if hi is None else max(hi, b)
        return None if lo is None else (lo, hi)

    def describe(self) -> "list[dict]":
        return [p.describe() for p in self.prims]


def identity_map(q: int) -> BoundaryMap:
    return BoundaryMap(q, ())


def shift_map(q: int, m: int) -> BoundaryMap:
    """The m-fold forward shift; m=1 is the basic contraction with lam 1/q."""
    if m == 0:
        return identity_map(q)
    return BoundaryMap(q, (Shift(m),))


def compose(first: BoundaryMap, then: BoundaryMap) -> BoundaryMap:
    if first.q != then.q:
        raise ValueError("maps over different alphabets")
    return BoundaryMap(first.q, first.prims + then.prims)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list(x) -> bool:
    return isinstance(x, (list, tuple))


def _is_word(x) -> bool:
    return _is_list(x) and all(_is_int(v) for v in x)


_FIELD_TYPES = {
    "a string": lambda x: isinstance(x, str),
    "an integer": _is_int,
    "a list": _is_list,
    "a list of integers": _is_word,
    "a list of [word, image] pairs": lambda x: _is_list(x) and all(
        _is_list(p) and len(p) == 2 and _is_word(p[0]) and _is_word(p[1]) for p in x
    ),
}


def _field(obj, name: str, kind: str, where: str):
    """obj[name], if obj is an object whose field holds a value of that kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {obj!r}")
    if name not in obj:
        raise ValueError(f"{where} has no field {name!r}")
    val = obj[name]
    if not _FIELD_TYPES[kind](val):
        raise ValueError(f"{where} field {name!r} must be {kind}, got {val!r}")
    return val


def map_from_description(q: int, desc) -> BoundaryMap:
    """Build a map from its description (the inverse of ``describe``).

    A missing or ill-typed field raises ValueError naming it.
    """
    if not _is_list(desc):
        raise ValueError(f"a map description is a list of primitives, got {desc!r}")
    prims = []
    for n, item in enumerate(desc):
        kind = _field(item, "kind", "a string", f"primitive {n}")
        where = f"{kind} primitive {n}"
        if kind == "shift":
            prims.append(Shift(_field(item, "m", "an integer", where)))
        elif kind == "perm":
            perms = [
                (
                    _field(p, "index", "an integer", f"{where} perm"),
                    _field(p, "table", "a list of integers", f"{where} perm"),
                )
                for p in _field(item, "perms", "a list", where)
            ]
            prims.append(level_perm(perms))
        elif kind == "prefix":
            prims.append(
                prefix_rewrite(
                    _field(item, "lo", "an integer", where),
                    _field(item, "hi", "an integer", where),
                    _field(item, "table", "a list of [word, image] pairs", where),
                )
            )
        else:
            raise ValueError(f"unknown primitive kind {kind!r}")
    return BoundaryMap(q, tuple(prims))


# ---------------------------------------------------------------------------
# measure linearity by exhaustive clone enumeration

@dataclass(frozen=True)
class MeasureCheck:
    constant: bool
    ratio: Optional[Fraction]
    witness: Optional[tuple]
    samples: int


def measure_linear_constant(m: BoundaryMap, depth: int) -> MeasureCheck:
    """Check that image measure / clone measure is one constant.

    Enumerates every clone at the given depth whose digits are supported
    on the probe window [probe_lo, depth] and compares the exact measure
    of its image (a finite disjoint union of clones) to its own measure.
    The window starts one index below the structural span of the map,
    and at -1 at the latest, which suffices: digits strictly below every
    structural read pass through a pure translation and cannot influence
    the ratio.  Those clones are the level-depth descendants of the root
    at probe_lo - 1, q**width of them, which the vertex budget bounds.
    """
    span = m.source_span()
    if span is not None and depth < span[1]:
        raise ValueError(f"depth {depth} below structural span {span}")
    probe_lo = min(-1, span[0] - 1) if span is not None else -1
    if probe_lo > depth:
        raise ValueError("probe window is empty")
    width = depth - probe_lo + 1
    q = m.q
    _within_budget(q**width, f"probe window enumerates {q**width} clones")
    ratio = None
    witness_clone = None
    samples = 0
    for c in tree_descendants(TreeVertex(probe_lo - 1, ()), width, q):
        images = m.clone_images(c)
        total = sum(clone_measure(ci, q) for ci in images)
        r = total / clone_measure(c, q)
        samples += 1
        if ratio is None:
            ratio = r
            witness_clone = c
        elif r != ratio:
            return MeasureCheck(False, None, (witness_clone, ratio, c, r), samples)
    return MeasureCheck(True, ratio, None, samples)


# ---------------------------------------------------------------------------
# interior maps

@dataclass(frozen=True)
class InteriorMap:
    """One boundary transducer per coordinate, acting on its clones.

    Heights are preserved: coordinate i of the image is the transducer's
    `vertex_image` of coordinate i, its zero-fill stream's image read at
    the original level.  The map need not be injective or surjective on
    the lattice; fibers are counted exactly via clone preimages.
    """

    params: GraphParams
    maps: tuple

    def __post_init__(self):
        if len(self.maps) != self.params.d:
            raise ValueError(f"need {self.params.d} coordinate maps")
        for m in self.maps:
            if m.q != self.params.q:
                raise ValueError("coordinate map alphabet differs from q")

    def lam_product(self) -> Fraction:
        out = Fraction(1)
        for m in self.maps:
            out *= m.lam()
        return out

    def bilip_max(self) -> int:
        return max(m.bilip() for m in self.maps)


def interior_map(params: GraphParams, maps) -> InteriorMap:
    return InteriorMap(params, tuple(maps))


def psi_apply(imap: InteriorMap, x: DLVertex) -> DLVertex:
    return DLVertex(imap.params, tuple(m.vertex_image(c) for m, c in zip(imap.maps, x.coords)))


def preimage_count(imap: InteriorMap, x: DLVertex) -> int:
    """Exact number of lattice vertices mapping to x under psi_apply.

    The map preserves heights and acts coordinatewise, so the fiber is a
    product over coordinates: vertices y_i at level h_i whose zero-fill
    stream lands in the clone of x_i.  Those are counted clone by clone
    over the exact preimage decomposition.
    """
    total = 1
    for m, coord in zip(imap.maps, x.coords):
        total *= _clone_fiber_count(m, coord, coord.level)
        if total == 0:
            return 0
    return total


def _clone_fiber_count(m: BoundaryMap, c: TreeVertex, level: int) -> int:
    """How many level-`level` vertices m sends into clone c."""
    return sum(count_vertices_in_clone(p, level, m.q) for p in m.clone_preimages(c))


def psi_eval(imap: InteriorMap, vertices) -> dict:
    """Evaluation table x -> psi(x), in input order."""
    return {x: psi_apply(imap, x) for x in vertices}


# ---------------------------------------------------------------------------
# fiber totals over a box, per coordinate

def _fiber_totals(imap: InteriorMap, box: Box):
    """Return point -> summed fiber count over the box members above it.

    The members over a cube point are the product of the roots'
    descendant sets, and fiber counts are products over coordinates, so
    the total is a product of per-coordinate sums.  The clones of a
    root's level-L descendants partition the root's clone, so each sum is
    the count of level-L vertices the map sends into the root's clone:
    one clone preimage per coordinate serves every level.
    """
    q = imap.params.q
    pres = [m.clone_preimages(root) for m, root in zip(imap.maps, box.roots)]

    def total(point) -> int:
        return math.prod(
            sum(count_vertices_in_clone(c, level, q) for c in pre)
            for pre, level in zip(pres, fiber_levels(box, point))
        )

    return total


# ---------------------------------------------------------------------------
# fiber-count audit over a box


@dataclass(frozen=True)
class FiberAudit:
    h: int
    box_size: int
    boundary_size: int
    r: int
    bilip: int
    lam_product: Fraction
    total_preimages: int
    lower_bound: Fraction
    upper_bound: Fraction
    bounds_ok: bool
    interior_size: int
    interior_total: int
    interior_constant: bool
    interior_value: Optional[int]


def fiber_count_audit(
    imap: InteriorMap,
    box: Box,
    r: Optional[int] = None,
    bilip: Optional[int] = None,
) -> FiberAudit:
    """Two-sided test of total fiber mass over a box.

    With lam the product of the coordinate measure scalars, K a
    bilipschitz constant for the map, and r >= log_q K, the exact total
    T = sum of fiber sizes over the box S must satisfy

        (|S| - |boundary_r S|) / lam  <=  T  <=  |S| / lam + K**d |boundary_r S|

    because the map moves interior mass at most distance-r and scales
    measure by exactly lam.  All quantities here are exact integers or
    Fractions; bounds_ok records whether T landed inside.

    Boundary membership depends on heights only, so the boundary/interior
    split is per cube point; totals come from `_fiber_totals` and the
    boundary size from `box_boundary_size`.  The distinct interior counts
    over a point are the products of each coordinate's distinct counts at
    its level, found by walking that coordinate's descendants once per
    level: at most one fiber's q**((d-1)*side), checked against the vertex
    budget before any walk.
    """
    params = imap.params
    if bilip is None:
        bilip = imap.bilip_max()
    if r is None:
        r = 1
        while params.q ** r < bilip:
            r += 1
    fiber = params.q ** ((params.d - 1) * cube_side(box.cube))
    _within_budget(fiber, f"fiber has {fiber} members")
    n = box_size(params, box)
    boundary_size = box_boundary_size(params, box, r)
    fiber_total = _fiber_totals(imap, box)
    boundary = set(cube_boundary(params, box.cube, r))
    level_counts = {}

    def distinct_counts(i: int, level: int) -> set:
        if (i, level) not in level_counts:
            root = box.roots[i]
            level_counts[i, level] = {
                _clone_fiber_count(imap.maps[i], y, level)
                for y in tree_descendants(root, level - root.level, params.q)
            }
        return level_counts[i, level]

    total = interior_total = 0
    distinct = set()
    for point in cube_points(box.cube):
        t = fiber_total(point)
        total += t
        if point in boundary:
            continue
        interior_total += t
        # two distinct values already settle interior_constant and _value
        if len(distinct) < 2:
            per_coord = [
                distinct_counts(i, level)
                for i, level in enumerate(fiber_levels(box, point))
            ]
            distinct.update(math.prod(c) for c in itertools.product(*per_coord))
    lam = imap.lam_product()
    lower = (Fraction(n) - boundary_size) / lam
    upper = Fraction(n) / lam + (bilip ** params.d) * boundary_size
    return FiberAudit(
        h=cube_side(box.cube),
        box_size=n,
        boundary_size=boundary_size,
        r=r,
        bilip=bilip,
        lam_product=lam,
        total_preimages=total,
        lower_bound=lower,
        upper_bound=upper,
        bounds_ok=lower <= total <= upper,
        interior_size=n - boundary_size,
        interior_total=interior_total,
        interior_constant=len(distinct) <= 1,
        interior_value=distinct.pop() if len(distinct) == 1 else None,
    )


# ---------------------------------------------------------------------------
# chain scans: additive obstruction sums over growing boxes

@dataclass(frozen=True)
class ChainRecord:
    h: int
    box_size: int
    boundary_size: int
    chain_sum: int
    ratio_boundary: Fraction
    ratio_box: Fraction


def uf_chain_scan(
    imap: InteriorMap,
    k: int,
    h_values: Sequence[int],
    r: int = 1,
) -> "tuple[ChainRecord, ...]":
    """Scan the deficiency sum of fibers against a target count k.

    For each side h, take the canonical box over the cube [0, h]**(d-1)
    and sum a_x = |fiber over x| - k across its members.  A map that is
    boundedly k-to-1 after a finite correction keeps |sum| / |boundary|
    bounded; a map with a genuine index obstruction shows this ratio
    growing linearly in h.  Ratios are exact Fractions.

    Totals are per coordinate (see `_fiber_totals`), so the cost grows
    with the cube, not the box. The r = 0 boundary is empty, so r must be
    at least 1.
    """
    if k < 1:
        raise ValueError("target fiber count k must be positive")
    if r < 1:
        raise ValueError(f"boundary thickness r must be at least 1, got {r}")
    params = imap.params
    out = []
    for h in h_values:
        box = side_box(params, h)
        n = box_size(params, box)
        chain = sum(map(_fiber_totals(imap, box), cube_points(box.cube))) - k * n
        bsize = box_boundary_size(params, box, r)
        out.append(
            ChainRecord(
                h=h,
                box_size=n,
                boundary_size=bsize,
                chain_sum=chain,
                ratio_boundary=Fraction(chain, bsize),
                ratio_box=Fraction(chain, n),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# the k-to-1 tile map onto the index-k lattice

@dataclass(frozen=True)
class Tiling:
    """A cube tiling of an ambient box, kept implicit.

    ambient.cube is the ambient height cube (side a multiple of h, corners
    aligned to h); each lattice point belongs to the unique tile cube
    containing it, whose corner and roots `umap` reads arithmetically.
    Every image is an ambient box member: its tracked heights lie in the
    cube, and its last coordinate keeps the source's digits at or below the
    tile's last root, which is at or above the ambient last root.

    A member x and its image y differ in their first and last coordinates
    only: y's first is x's first's ancestor at the tile corner, and the
    middle coordinates pass through. So their pair signature is
    ((drop, 0), (0, 0), ..., (c, e)), with drop the fall in first height
    and (c, e) the last coordinates' heights above their meet, and one
    meet gives the displacement (`tile_displacements`).
    """

    params: GraphParams
    h: int
    ambient: Box


def make_tiling(params: GraphParams, region: HeightCube, h: int) -> Tiling:
    """Tile the canonical box over region with side-h cubes.

    A region not aligned to the side-h grid raises RegionAlignmentError.
    """
    if params.k != 1:
        raise ValueError("tilings are built on the ordinary lattice (k = 1)")
    if h < 1:
        raise ValueError("tile side must be positive")
    for a, b in region.intervals:
        if a % h or (b - a + 1) % h:
            raise RegionAlignmentError(
                f"region interval ({a},{b}) is not aligned to tile side {h}"
            )
    return Tiling(params, h, canonical_box(params, region))


def _tile_images(tiling: Tiling, k: int, point: Sequence[int], pools) -> Iterator[tuple]:
    """Image coords of the members product(*pools) over a cube point, in order.

    Within the tile over the point, the q**j (first, last) coordinate pairs
    at offset j above the tile's corner are matched, in lexicographic digit
    order, with the q**j pairs at the corner whose last coordinate absorbs
    the offset; middle coordinates pass through. With tile side k this is
    exactly k-to-1 onto first heights in kZ. As digit strings the matching
    is a relabelling, blind to q: the image's last coordinate keeps last's
    digits down to its tile root, then first's digits below the corner, then
    last's below its root, each block moved to follow the one before. Blocks
    are cut once per pool member and joined once per image.
    """
    if k != tiling.h:
        raise ValueError("tile side must equal the index k")
    corners = [x // k * k for x in point]
    top, offset = corners[0], point[0] - corners[0]
    level = offset - sum(point)  # the image's last height
    # the tile's last root sits below its far corner
    base = -sum(corners) - (tiling.params.d - 1) * (k - 1)
    heads = [
        (tree_ancestor(c, top), [(i - top + base, v) for i, v in c.digits if i > top])
        for c in pools[0]
    ]
    tails = [
        ([p for p in c.digits if p[0] <= base], [(i + offset, v) for i, v in c.digits if i > base])
        for c in pools[-1]
    ]
    middles = itertools.product(*pools[1:-1])
    for (head, block), middle, (low, high) in itertools.product(heads, middles, tails):
        yield (head,) + middle + (TreeVertex(level, (*low, *block, *high)),)


def umap(tiling: Tiling, k: int, x: DLVertex) -> DLVertex:
    """Map a lattice vertex into the index-k lattice: a one-member fiber of `_tile_images`."""
    [coords] = _tile_images(tiling, k, rho(x), [(c,) for c in x.coords])
    return DLVertex(tiling.params._replace(k=k), coords)


def umap_pairs(tiling: Tiling, k: int) -> Iterator[tuple]:
    """(member coords, image coords) over the ambient box, fiber by fiber, unbudgeted."""
    params, box = tiling.params, tiling.ambient
    for point in cube_points(box.cube):
        pools = fiber_pools(params, box, point)
        yield from zip(itertools.product(*pools), _tile_images(tiling, k, point, pools))


def umap_positions(tiling: Tiling, k: int) -> "tuple[tuple, tuple, list[int]]":
    """(keys, members, image): the ambient box in key order, budget checked first.

    Every image is an ambient box member (see `Tiling`), so image[i] is the
    position of member i's image; one outside the box raises ValueError.
    """
    keys, members = sorted_box_members(tiling.params, tiling.ambient)
    position = {x.coords: i for i, x in enumerate(members)}
    image = [0] * len(members)
    for coords, image_coords in umap_pairs(tiling, k):
        i, j = position[coords], position.get(image_coords)
        if j is None:
            raise ValueError(f"umap image of {keys[i]} lies outside the ambient box")
        image[i] = j
    return keys, members, image


def umap_eval(tiling: Tiling, k: int) -> dict:
    """The tile map over the ambient box in key order, as `umap_positions` finds it."""
    _, members, image = umap_positions(tiling, k)
    target = tiling.params._replace(k=k)
    return {x: DLVertex(target, members[j].coords) for x, j in zip(members, image)}


def tile_displacements(params: GraphParams, pairs) -> Iterator[int]:
    """Graph distance from each tile-map member to its image, in the order given.

    pairs yields (member coords, image coords), both read in the ordinary
    graph of params. Their signature is fixed by (drop, c, e) (see
    `Tiling`), and a k = 1 distance depends only on the sorted signature,
    so each triple's distance is kept for this call only; `dl_distance`
    answers each new triple.
    """
    known = {}
    for x, y in pairs:
        a, b = x[-1], y[-1]
        m = meet_level(a, b)
        sig = (x[0].level - y[0].level, a.level - m, b.level - m)
        dist = known.get(sig)
        if dist is None:
            dist = known[sig] = dl_distance(DLVertex(params, x), DLVertex(params, y))
        yield dist


def umap_displacement(tiling: Tiling, k: int) -> int:
    """Max graph distance between x and its image, read in the ordinary graph."""
    _, members, image = umap_positions(tiling, k)
    pairs = ((x.coords, members[j].coords) for x, j in zip(members, image))
    return max(tile_displacements(tiling.params, pairs))


# ---------------------------------------------------------------------------
# distortion estimates from evaluation tables

@dataclass(frozen=True)
class DistortionReport:
    pairs: int
    k_est: Fraction
    c_est: Fraction
    max_displacement: Optional[int]


def distortion(table: dict, n_pairs: int = 30, seed: int = 0) -> DistortionReport:
    """Estimate multiplicative and additive distortion from sampled pairs.

    Samples vertex pairs from the table domain, compares source and image
    distances, and reports the smallest K with d' <= K d and d <= K d' on
    every sampled pair with both distances positive, plus the additive
    slack C absorbing degenerate pairs.  When domain and image share
    parameters, also reports the max displacement over the whole table.
    Pairs are drawn by table position, so callers pass the table in
    `dl_key` order of its domain, as `sorted_box_members` and `umap_eval`
    give it.
    """
    import random

    if n_pairs < 1:
        raise ValueError(f"need at least one sample pair, got {n_pairs}")
    items = list(table.items())
    if len(items) < 2:
        raise ValueError("need at least two table entries")
    rng = random.Random(seed)
    ratios = []
    degenerate = []
    for _ in range(n_pairs):
        i, j = rng.sample(range(len(items)), 2)
        (u, fu), (v, fv) = items[i], items[j]
        ds = dl_distance(u, v)
        dt = dl_distance(fu, fv)
        if ds > 0 and dt > 0:
            ratios.append(Fraction(dt, ds))
            ratios.append(Fraction(ds, dt))
        else:
            degenerate.append((ds, dt))
    k_est = max(ratios) if ratios else Fraction(1)
    c_est = Fraction(0)
    for ds, dt in degenerate:
        c_est = max(c_est, Fraction(dt) - k_est * ds, Fraction(ds) / k_est - dt)
    max_disp = None
    u0, f0 = items[0]
    if u0.params == f0.params:
        max_disp = max(dl_distance(x, y) for x, y in items)
    return DistortionReport(
        pairs=n_pairs, k_est=k_est, c_est=max(c_est, Fraction(0)), max_displacement=max_disp
    )
