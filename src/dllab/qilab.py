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
  totals are one convolution over the cube axes, never point by point;
* tile maps: the exactly k-to-1 map from the ordinary lattice onto the
  index-k sublattice built from a cube tiling, a relabelling of digits
  that moves pool positions by integer arithmetic one fiber of the
  ambient box at a time, plus displacement and distortion estimates.

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
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from .dlgraph import (
    Box,
    DLVertex,
    GraphParams,
    HeightCube,
    LazyDict,
    RegionAlignmentError,
    TreeVertex,
    _box_listing,
    _canonical_state,
    _cube_axes,
    _distance,
    _fiber_depths,
    _inner_cube,
    _is_int,
    _listed_members,
    _printable,
    _within_budget,
    box_boundary_size,
    box_size,
    canonical_box,
    cube_side,
    cube_size,
    dl_distance,
    side_box,
    tree_ancestor,
    tree_descendants,
)
from .record import Record


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

class Shift(Record):
    """Translate every digit index by m (stream index i reads input i - m).

    Scales the clone measure by q**(-m) and stream distances by the same
    factor, hence contributes q**(-m) to the measure scalar and q**|m| to
    the bilipschitz constant. A primitive states both as exponents of q
    (`lam_exponent`, `bilip_exponent`), so each power is judged from its
    exponent before it is built. Each primitive, and each map built from them,
    is an immutable record.Record.
    """

    __slots__ = _fields = ("m",)

    def __init__(self, m: int):
        object.__setattr__(self, "m", m)

    def lam_exponent(self) -> int:
        return -self.m

    def bilip_exponent(self) -> int:
        return abs(self.m)

    def inverse(self) -> "Shift":
        return Shift(-self.m)

    def clone_images(self, c: TreeVertex) -> "list[TreeVertex]":
        level, digits = c
        return [TreeVertex(level + self.m, tuple((i + self.m, v) for i, v in digits))]

    def check_alphabet(self, q: int) -> None:
        pass


class LevelPerm(Record):
    """Permute the digit alphabet independently at finitely many indices.

    perms is a sorted tuple of (index, table) pairs where table is a
    tuple of length q listing the image of each digit.  Measure scalar 1,
    bilipschitz constant 1.
    """

    __slots__ = _fields = ("perms",)

    def __init__(self, perms: tuple):
        object.__setattr__(self, "perms", perms)
        seen = set()
        for lvl, table in self.perms:
            if lvl in seen:
                raise ValueError(f"duplicate permuted index {lvl}")
            seen.add(lvl)
            if sorted(table) != list(range(len(table))):
                raise ValueError(f"table at index {lvl} is not a permutation")
        if tuple(sorted(self.perms)) != self.perms:
            raise ValueError("perms must be sorted by index")

    def lam_exponent(self) -> int:
        return 0

    def bilip_exponent(self) -> int:
        return 0

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


class PrefixRewrite(Record):
    """Rewrite the digit window [lo, hi] through a bijection of words.

    table maps every length-(hi - lo + 1) digit word over {0, ..., q-1} to
    an image word of the same length; digits outside the window pass
    through unchanged.  The alphabet size q is implicit in the table.
    Measure scalar 1; bilipschitz constant q**(hi - lo) since a first
    difference inside the window can move anywhere else inside it.
    """

    _fields = ("lo", "hi", "table")

    def __init__(self, lo: int, hi: int, table: tuple):
        # table: sorted tuple of (word, image) pairs covering all words
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "table", table)
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
        # the count is compared first, so no more words are built than the
        # table holds: q**width > len(ins) once width passes its bit length
        n = len(ins)
        q = self._q() if ins else 0
        if (
            q < 1
            or (q > 1 and width > n.bit_length())
            or q**width != n
            or ins != list(itertools.product(range(q), repeat=width))
        ):
            raise ValueError("table does not cover a full power alphabet")

    def _q(self) -> int:
        # the sorted table ends with the word of all top digits q - 1
        return self.table[-1][0][0] + 1

    def lam_exponent(self) -> int:
        return 0

    def bilip_exponent(self) -> int:
        return self.hi - self.lo

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


def prefix_rewrite(lo: int, hi: int, pairs) -> PrefixRewrite:
    """Build a PrefixRewrite from any iterable of (word, image) pairs."""
    table = tuple(sorted((tuple(w), tuple(img)) for w, img in pairs))
    return PrefixRewrite(lo, hi, table)


def level_perm(perms) -> LevelPerm:
    return LevelPerm(tuple(sorted((int(lvl), tuple(t)) for lvl, t in perms)))


# ---------------------------------------------------------------------------
# boundary maps: composed transducers

class BoundaryMap(Record):
    """A finite composition of primitives, applied left to right.

    Every primitive's tables must be over the digit alphabet {0, ..., q-1};
    construction raises ValueError otherwise.
    """

    _fields = ("q", "prims")

    def __init__(self, q: int, prims: tuple):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "prims", prims)
        for p in self.prims:
            p.check_alphabet(self.q)

    def lam_exponent(self) -> int:
        """e with q**e the exact measure scalar, by which clone images shrink; primitives add."""
        return sum(p.lam_exponent() for p in self.prims)

    def bilip_exponent(self) -> int:
        """e with q**e a bilipschitz constant for stream distances (not sharp); primitives add."""
        return sum(p.bilip_exponent() for p in self.prims)

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
    """Build a map from its description: the one statement of that format.

    A description is a list of primitives, applied left to right, each an
    object whose ``kind`` names it: ``shift`` with an integer ``m``
    (`Shift`), ``perm`` with ``perms``, a list of ``index`` and ``table``
    objects (`level_perm`), or ``prefix`` with ``lo``, ``hi`` and a
    ``table`` of [word, image] pairs (`prefix_rewrite`).  A missing or
    ill-typed field raises ValueError naming it.
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

class MeasureCheck(NamedTuple):
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
    _within_budget(1, "probe window enumerates {} clones", q, width)
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

class InteriorMap(Record):
    """One boundary transducer per coordinate, acting on its clones.

    Heights are preserved: coordinate i of the image is the transducer's
    `vertex_image` of coordinate i, its zero-fill stream's image read at
    the original level.  The map need not be injective or surjective on
    the lattice; fibers are counted exactly via clone preimages.
    """

    __slots__ = _fields = ("params", "maps")

    def __init__(self, params: GraphParams, maps: tuple):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "maps", maps)
        if len(self.maps) != self.params.d:
            raise ValueError(f"need {self.params.d} coordinate maps")
        for m in self.maps:
            if m.q != self.params.q:
                raise ValueError("coordinate map alphabet differs from q")

    def lam_exponent(self) -> int:
        """e with q**e the product of the coordinate measure scalars: their exponents add."""
        return sum(m.lam_exponent() for m in self.maps)

    def bilip_exponent(self) -> int:
        """e with q**e the largest coordinate bilipschitz constant: the largest exponent."""
        return max(m.bilip_exponent() for m in self.maps)


def interior_map(params: GraphParams, maps) -> InteriorMap:
    return InteriorMap(params, tuple(maps))


def psi_apply(imap: InteriorMap, x: DLVertex) -> DLVertex:
    if x.params != imap.params:
        raise ValueError("vertex and map live in different graphs")
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
    """Evaluation table x -> psi_apply(imap, x), in input order.

    Many vertices share a tree coordinate, so each map reads each distinct
    tree vertex once, from a table of its vertex_image that lives for this
    call.
    """
    images = [LazyDict(m.vertex_image) for m in imap.maps]
    params = imap.params
    return {x: DLVertex(params, tuple([im[c] for im, c in zip(images, x.coords)])) for x in vertices}


# ---------------------------------------------------------------------------
# fiber totals over a box, by convolution over the cube axes

def _fiber_total(imap: InteriorMap, box: Box) -> int:
    """Summed fiber count over the box members.

    A point's members are a product of the roots' descendant sets, and
    fiber counts are products over coordinates.  The clones of a root's
    level-L descendants partition its clone, so coordinate i sums to
    g_i(L), the level-L vertices its map sends into that clone.  The last
    level is minus the sum s of the others, so the total is the sum over
    s of W(s) * g_d(-s), W the convolution of g_1 .. g_{d-1} over the cube
    axes: O(d * side) fiber counts and O(d**2 * side**2) products.
    """
    *tracked, last = zip(imap.maps, box.roots)
    weights = {0: 1}
    for (m, root), axis in zip(tracked, _cube_axes(box.cube)):
        g = [(level, _clone_fiber_count(m, root, level)) for level in axis]
        conv = {}
        for s, w in weights.items():
            for level, c in g:
                conv[s + level] = conv.get(s + level, 0) + w * c
        weights = conv
    return sum(w * _clone_fiber_count(*last, -s) for s, w in weights.items())


# ---------------------------------------------------------------------------
# fiber-count audit over a box


class FiberAudit(NamedTuple):
    """A box's fiber total against its bounds, and its fiber counts off the r-boundary.

    Its fields are the audit CSV's columns and JSON keys, each Fraction as its str."""

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
    interior_constant: bool
    interior_value: Optional[int]


def audit_radius(q: int, bilip: int) -> int:
    """The least r >= 1 with q**r >= bilip: the audit bounds need r >= log_q K."""
    r = max(1, math.ceil(math.log(bilip, q)) - 1)  # at most the answer: the float errs by < 1
    return next(s for s in itertools.count(r) if q**s >= bilip)


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
    Fractions; bounds_ok records whether T landed inside.  r defaults to
    `audit_radius`; a smaller r is accepted, and there the bounds may fail.

    T is one convolution (`_fiber_total`).  Boundary membership depends on
    heights only, so the interior lies over `_inner_cube`, and no boundary
    is listed.  The distinct interior
    counts over a point are the products of each coordinate's distinct
    counts at its level, found by walking that coordinate's descendants
    once per level: at most one fiber's q**((d-1)*side), checked against
    the vertex budget before any walk.  Inner points are read until two
    counts differ.  Before any walk, bilip, lam_product and the two bounds
    must each print (`dlgraph._printable`), or ValueError names the
    first that does not.  The default bilip, and lam_product, are powers
    of q, judged from their exponents before they are built; the default
    bilip is judged first, since audit_radius reads it.
    """
    params = imap.params
    h = cube_side(box.cube)
    if bilip is None:
        bilip = _printable(1, f"side {h}: bilip", params.q, imap.bilip_exponent())
    if r is None:
        r = audit_radius(params.q, bilip)
    _within_budget(1, "fiber has {} members", params.q, (params.d - 1) * h)
    n = box_size(params, box)
    boundary_size = box_boundary_size(params, box, r)
    # the total is not checked: from audit_radius on it is at most the upper bound
    _printable(bilip, f"side {h}: bilip")
    e = imap.lam_exponent()
    _printable(1, f"side {h}: lam_product", params.q, abs(e))
    lam = Fraction(params.q) ** e
    lower = (Fraction(n) - boundary_size) / lam
    upper = Fraction(n) / lam + (bilip ** params.d) * boundary_size
    for name, value in (("lower_bound", lower), ("upper_bound", upper)):
        _printable(max(abs(value.numerator), value.denominator), f"side {h}: {name}")
    inner = _inner_cube(box.cube, r)

    def distinct_counts(coord_level: tuple) -> set:
        i, level = coord_level
        root = box.roots[i]
        return {
            _clone_fiber_count(imap.maps[i], y, level)
            for y in tree_descendants(root, level - root.level, params.q)
        }

    counts = LazyDict(distinct_counts)
    distinct = set()
    for point in itertools.product(*_cube_axes(inner)):
        per_coord = [counts[i, level] for i, level in enumerate(point + (-sum(point),))]
        distinct.update(math.prod(c) for c in itertools.product(*per_coord))
        if len(distinct) > 1:  # two values settle interior_constant and _value
            break
    total = _fiber_total(imap, box)
    return FiberAudit(
        h=h,
        box_size=n,
        boundary_size=boundary_size,
        r=r,
        bilip=bilip,
        lam_product=lam,
        total_preimages=total,
        lower_bound=lower,
        upper_bound=upper,
        bounds_ok=lower <= total <= upper,
        interior_constant=len(distinct) <= 1,
        interior_value=distinct.pop() if len(distinct) == 1 else None,
    )


# ---------------------------------------------------------------------------
# chain scans: additive obstruction sums over growing boxes

class ChainRecord(NamedTuple):
    """One side of a chain scan: the chain CSV's columns, each Fraction as its float's repr."""

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

    Totals are one convolution over the cube axes (`_fiber_total`), so
    the cost grows as side**2; the cube is still gated by the vertex
    budget. The r = 0 boundary is empty, so r must be at least 1.
    """
    if k < 1:
        raise ValueError("target fiber count k must be positive")
    if r < 1:
        raise ValueError(f"boundary thickness r must be at least 1, got {r}")
    params = imap.params
    out = []
    for h in h_values:
        box = side_box(params, h)
        _within_budget(cube_size(box.cube), "cube has {} points")
        n = _printable(cube_size(box.cube), f"side {h}: box size", params.q, (params.d - 1) * h)
        chain = _printable(_fiber_total(imap, box) - k * n, f"side {h}: chain sum")
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

class Tiling(NamedTuple):
    """A cube tiling of an ambient box, kept implicit.

    ambient.cube is the ambient height cube (side a multiple of h, corners
    aligned to h); each lattice point belongs to the unique tile cube
    containing it. Within a tile, the tile map matches the q**j (first,
    last) coordinate pairs at offset j above its corner, in lexicographic
    digit order, with the q**j pairs at the corner whose last coordinate
    absorbs the offset; middle coordinates pass through. With h = k this
    is exactly k-to-1 onto first heights in kZ.
    Every image is an ambient box member: its tracked heights lie in the
    cube, and its last coordinate keeps the source's digits at or below the
    tile's last root, which is at or above the ambient last root.

    A member x and its image y differ in their first and last coordinates
    only: y's first is x's first's ancestor at the tile corner, and the
    middle coordinates pass through. So their pair signature is
    ((drop, 0), (0, 0), ..., (c, e)), with drop the fall in first height
    and (c, e) the last coordinates' heights above their meet. Read as
    digit strings, y's last is x's last with the drop first digits below
    the corner inserted after the tile root, so (c, e) follows from those
    digits and x's last digits below the tile root (`_fiber_images`).
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


def _fiber_images(q: int, k: int, point: tuple, depths: list) -> tuple:
    """(image point, image depths, images, signatures) of the members over a cube point.

    Members are listed in build order, the product of the fiber's pools,
    and images[b] is member b's image as a mixed-radix number over the
    image fiber's pool positions, the last coordinate fastest; signatures[b]
    is its (drop, c, e) (see `Tiling`). With off = point[0] % k, the drop,
    and nlo the last coordinate's depth below its tile root, the tile map
    moves pool positions (tree_descendants' position rule) as follows:

    * first: t0 -> t0 // q**off, its ancestor at the tile corner;
    * middles: unchanged;
    * last: tL -> ((tL // q**nlo) * q**off + t0 % q**off) * q**nlo + tL % q**nlo,
      first's off digits below the corner inserted above last's nlo digits
      below the tile root.

    The two last coordinates then share every digit above the tile root
    and the first L of last's nlo low digits, L their common prefix length
    with the first nlo digits of (t0 % q**off, tL % q**nlo) read as one
    string: c = nlo - L and e = c + off. So c depends on those two
    remainders only, one small list per fiber; the rest is integer
    arithmetic, with no tree vertex built.
    """
    off = point[0] % k
    nlo = sum(k - 1 - p % k for p in point)
    first, *middles, last = depths
    fo, fl = q**off, q**nlo
    mids, highs = q ** sum(middles), q**last // fl
    span = q ** (last + off)  # the image's last pool size
    heads = [
        ((t0 // fo) * mids + m) * span + (t0 % fo) * fl
        for t0 in range(q**first)
        for m in range(mids)
    ]
    tails = [hi * fo * fl + lo for hi in range(highs) for lo in range(fl)]
    images = [h + t for h in heads for t in tails]
    rows = []
    for f in range(fo):
        row = []
        for lo in range(fl):
            up = (f * fl + lo) // fo  # the first nlo digits of f, then lo
            c = 0
            while lo // q**c != up // q**c:
                c += 1
            row.append((off, c, c + off))
        rows += row * highs * mids
    signatures = rows * (q**first // fo)
    image_point = (point[0] - off, *point[1:])
    return image_point, [first - off, *middles, last + off], images, signatures


def umap_positions(tiling: Tiling, k: int) -> "tuple[tuple, list[int], list[tuple]]":
    """(listing, image, signatures): the ambient box's listing, budget checked first.

    listing is `dlgraph._box_listing`'s, its keys in key order. image[i] is
    the key-order position of member i's image, and signatures[i] its
    (drop, c, e) (see `Tiling`). Both are read fiber by fiber by
    pool-position arithmetic (`_fiber_images`), then mapped from build
    order to key order; no member is built as a vertex. An image fiber
    whose point is outside the cube, or whose pool depths differ from the
    box's there, raises ValueError naming the fiber's first member.
    """
    if k != tiling.h:
        raise ValueError("tile side must equal the index k")
    params, box = tiling.params, tiling.ambient
    listing = _box_listing(params, box)
    keys, offsets, order, pos, _ = listing
    image_ids, signatures = [], []
    for point, offset in offsets.items():
        image_point, depths, images, sigs = _fiber_images(
            params.q, k, point, _fiber_depths(box, point)
        )
        target = offsets.get(image_point)
        if target is None or _fiber_depths(box, image_point) != depths:
            raise ValueError(f"umap image of {keys[pos[offset]]} lies outside the ambient box")
        image_ids += [target + j for j in images]
        signatures += sigs
    image = [pos[image_ids[i]] for i in order]
    return listing, image, [signatures[i] for i in order]


def umap_eval(tiling: Tiling, k: int) -> dict:
    """The tile map over the ambient box in key order, as `umap_positions` finds it."""
    listing, image, _ = umap_positions(tiling, k)
    params = tiling.params
    members = _listed_members(tiling.ambient, listing)
    target = params._replace(k=k)
    return {DLVertex(params, x): DLVertex(target, members[j]) for x, j in zip(members, image)}


def tile_displacements(d: int, signatures) -> Iterator[int]:
    """Graph distance from each member to its image, over a `umap_positions` listing.

    Both are read in the members' ordinary graph, DL_d(q). Their pair
    signature is ((drop, 0), (0, 0), ..., (c, e)) (see `Tiling`), and a
    k = 1 distance depends only on that signature (`dl_distance`), so each
    (drop, c, e) triple fixes its distance. Each distinct triple's distance
    is asked once, of `dlgraph._distance` (the closed form at d = 2, a
    search otherwise), and kept for this call only; no vertex is built.
    """
    middles = ((0, 0),) * (d - 2)

    def distance(triple):
        drop, c, e = triple
        return _distance(1, _canonical_state(1, ((drop, 0), *middles, (c, e))))

    return map(LazyDict(distance).__getitem__, signatures)


def umap_displacement(tiling: Tiling, k: int) -> int:
    """Max graph distance between x and its image, read in the ordinary graph."""
    _, _, signatures = umap_positions(tiling, k)
    return max(tile_displacements(tiling.params.d, signatures))


# ---------------------------------------------------------------------------
# distortion estimates from evaluation tables

class DistortionReport(NamedTuple):
    """Sampled distortion estimates: the distortion JSON's keys, each Fraction as its str."""

    pairs: int
    k_est: Fraction
    c_est: Fraction
    max_displacement: Optional[int]


def distortion(table: dict, n_pairs: int = 30, seed: int = 0) -> DistortionReport:
    """Estimate multiplicative and additive distortion from sampled pairs.

    Samples vertex pairs from the table domain, compares source and image
    distances, and reports the smallest K with d' <= K d and d <= K d' on
    every sampled pair whose images differ, plus the additive slack C
    absorbing the pairs whose images meet: their largest d, divided by K.
    The two vertices of a pair are distinct keys of the table, so d >= 1.
    Only running maxima are kept, never a list per pair: K as an integer
    ratio kn / kd, replaced when a pair's max(d, d') / min(d, d') exceeds
    it by cross-multiplying, and made a Fraction once, after the loop.
    Each distance is `dl_distance`'s, a closed form at d = 2.  When domain and
    image share parameters, also reports the max displacement over the
    whole table.
    Pairs are drawn by table position, so callers pass the table in
    `dl_key` order of its domain, as `dlgraph._box_listing` and
    `umap_eval` give it.
    """
    import random

    if n_pairs < 1:
        raise ValueError(f"need at least one sample pair, got {n_pairs}")
    items = list(table.items())
    if len(items) < 2:
        raise ValueError("need at least two table entries")
    rng = random.Random(seed)
    kn = kd = 1  # K = kn / kd
    collapsed = 0  # the largest d where d' = 0
    for _ in range(n_pairs):
        i, j = rng.sample(range(len(items)), 2)
        (u, fu), (v, fv) = items[i], items[j]
        ds = dl_distance(u, v)
        dt = dl_distance(fu, fv)
        if dt > 0:
            a, b = (ds, dt) if ds > dt else (dt, ds)
            if a * kd > kn * b:
                kn, kd = a, b
        elif ds > collapsed:
            collapsed = ds
    k_est = Fraction(kn, kd)
    c_est = Fraction(collapsed) / k_est
    max_disp = None
    u0, f0 = items[0]
    if u0.params == f0.params:
        max_disp = max(dl_distance(x, y) for x, y in items)
    return DistortionReport(pairs=n_pairs, k_est=k_est, c_est=c_est, max_displacement=max_disp)
