"""Higher-rank lamplighter groups acting on Diestel-Leader graphs.

Elements are affine maps x -> A x + P where A is a monomial in the units
(t + l_1), ..., (t + l_{d-1}) of the localized ring and P is a ring element;
the pair (exponent vector of A, P) is a complete normal form. The group is
generated by the d(d-1)q affine generators whose images under the height
correspondence are exactly the neighbors of the base vertex, making the
Cayley graph isomorphic to DL_d(q).

The correspondence sends an element to one tree vertex per place: place
i < d tracks the expansion digits of P in s = t + l_i strictly below the
cutoff exponent exps_i, and the place at infinity tracks digits of P in
u = 1/t up to exponent -sum(exps). The cutoff offsets are fixed module
constants chosen so that every generator move is a single graph edge.

Word balls run their BFS on states (exps, x), x the partial-fraction
digits of P packed into one int, so a product by a generator is one
carry-free add (_word_step); the correspondence and index checks read
the states, and cayley_ball converts them to normal forms. Each is checked
against the vertex budget before a letter is built (_check_word_ball).
multiply and invert remain the general group law.

The index-k subgroup is the kernel of the first exponent mod k. One
construction gives its generating set: k-step products along the first
place, mixed products trading first-place steps against the other places,
and all generators that avoid the first place. At k = 1 it is the standard
generating set.
"""

from __future__ import annotations

from array import array
from functools import partial, reduce
from itertools import product
from typing import NamedTuple, Optional, Sequence

from .algebra import (
    RationalElement,
    RingParams,
    expand_local,
    from_partial_fractions,
    partial_fractions,
    ptrim,
    rat_add,
    rat_const,
    rat_neg,
    rat_scale_unit,
    rat_zero,
    rational,
)
from . import dlgraph
from .dlgraph import (
    DLVertex,
    GraphParams,
    LazyDict,
    TreeVertex,
    _ball_search,
    _check_degree,
    _check_radius,
    _is_int,
    _key_order,
    _layered_bfs,
    _state_moves,
    _state_size,
    base_vertex,
    dl_key,
    expected_degree,
    graph_params,
)
from .record import Record

# Per-place offset between tree digit indices and expansion exponents: the
# digit at tree index j is the expansion digit at exponent j + offset, -1 at
# the finite places (exponents below the height) and 0 at infinity (up to
# it). Each generator move is then a single edge, as validation checks.
def correspondence_cutoffs(d: int) -> "tuple[int, ...]":
    return (-1,) * (d - 1) + (0,)


class GroupElement(Record):
    """Normal form (exps, P) for the affine map x -> (prod units^exps) x + P.

    An immutable record (see record.Record).
    """

    __slots__ = _fields = ("params", "exps", "P")

    def __init__(self, params: RingParams, exps: tuple, P: RationalElement):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "P", P)


def identity(params: RingParams) -> GroupElement:
    return GroupElement(params, (0,) * (params.d - 1), rat_zero(params))


def element_key(g: GroupElement) -> str:
    return f"{g.exps}|{g.P.num}|{g.P.den}"


def _scale_by_monomial(P: RationalElement, exps: Sequence[int]) -> RationalElement:
    for place, e in enumerate(exps, start=1):
        if e:
            P = rat_scale_unit(P, place, e)
    return P


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.params != h.params:
        raise ValueError("elements live in different groups")
    exps = tuple(a + b for a, b in zip(g.exps, h.exps))
    return GroupElement(g.params, exps, rat_add(g.P, _scale_by_monomial(h.P, g.exps)))


def invert(g: GroupElement) -> GroupElement:
    exps = tuple(-a for a in g.exps)
    return GroupElement(g.params, exps, rat_neg(_scale_by_monomial(g.P, exps)))


def gen_first(params: RingParams, place: int, b: int) -> GroupElement:
    """Affine generator (t + l_place, b)."""
    if not 1 <= place <= params.d - 1:
        raise ValueError(f"place must be in 1..{params.d - 1}")
    exps = tuple(1 if t == place - 1 else 0 for t in range(params.d - 1))
    return GroupElement(params, exps, rat_const(params, b))


def gen_ratio(params: RingParams, i: int, j: int, b: int) -> GroupElement:
    """Affine generator ((t + l_i)/(t + l_j), -b/(t + l_j)); i != j."""
    if i == j or not (1 <= i <= params.d - 1 and 1 <= j <= params.d - 1):
        raise ValueError("need two distinct places")
    exps = tuple(
        1 if t == i - 1 else (-1 if t == j - 1 else 0) for t in range(params.d - 1)
    )
    den = tuple(1 if t == j - 1 else 0 for t in range(params.d - 1))
    return GroupElement(params, exps, rational(params, ((-b) % params.q,), den))


def generators(params: RingParams) -> "tuple[GroupElement, ...]":
    """The standard generating set; size d(d-1)q, closed under inversion."""
    return _generating_set(params, 1)


# ---------------------------------------------------------------------------
# balls in the word metric


class CayleyBall(NamedTuple):
    params: RingParams
    radius: int
    elements: tuple
    keys: tuple
    depths: tuple


def _field_width(q: int) -> int:
    """Bits per field of a packed state: whole bytes, a power of two, holding 2q - 2 below a guard bit."""
    return 8 << ((2 * q - 2).bit_length() // 8).bit_length()


def _packed(params: RingParams, digits: Sequence[tuple]) -> int:
    """Partial-fraction digits as one int: digit m of place i in field m * d + i."""
    w, d = _field_width(params.q), params.d
    return sum(v << (m * d + i) * w for i, part in enumerate(digits) for m, v in enumerate(part))


def _places(x: int, w: int, d: int) -> list:
    """Each place's digits in a packed int, top ones maybe zero: every d-th w-bit field."""
    size = w // 8
    fields = x.to_bytes(-(-x.bit_length() // w) * size, "little")
    if size > 1:
        fields = [int.from_bytes(fields[n:n + size], "little") for n in range(0, len(fields), size)]
    places = []  # a loop costs less than a list comprehension on so few places
    for i in range(d):
        places.append(fields[i::d])
    return places


def _digits(params: RingParams, x: int) -> tuple:
    """_packed's inverse: each place's digits, trimmed."""
    return tuple(map(ptrim, _places(x, _field_width(params.q), params.d)))


def _word_step(params: RingParams, gens: tuple):
    """The word-metric BFS steps on packed partial-fraction digits, and the identity's state.

    A state is (exps, x), x the partial-fraction digits of P packed by
    _packed: a bijective image of the normal form (_element converts back),
    exact under hashing as zero top fields vanish. g * s adds to P the term
    t = U(g.exps) * s.P, U(f) = prod (t + l_i)^f_i. Digit sums fit below
    each field's guard bit w - 1, so s = x + t carries nothing, and the
    guard bits of s + C, C repeating 2^(w-1) - q, mark where q comes off;
    C and the mask H widen when a longer term appears. By its own digits a
    distinct generator P is a sum of a * U(f) (a at (t + l_j)^(-n) gives
    U(-n e_j), at t^n U(n e_1), as l_1 = 0), so each term sums packed
    a * U(exps + f), each computed once.

    step(state) lists the states g * s in the order of gens, half_step(state)
    only those of letters whose exps has a positive first nonzero entry: one
    of each inverse pair if gens is closed under inversion with no zero exps,
    so each edge is listed from one endpoint, as _induced_edges needs.
    """
    q = params.q
    w = _field_width(q)
    guard = w - 1
    C = H = 0
    pool = {}  # one shared tuple per exps vector this step reaches
    distinct = {}  # each distinct generator P -> its index among them
    letters = [(s.exps, distinct.setdefault(s.P, len(distinct))) for s in gens]
    # tuples compare at their first difference: exps > zeros iff its first nonzero entry is > 0
    half = [n for n, (sexps, _) in enumerate(letters) if sexps > (0,) * len(sexps)]
    one = rat_const(params, 1)
    units = LazyDict(lambda f: partial_fractions(_scale_by_monomial(one, f)))
    # a * U(f) packed, once per unit power and digit a that the terms meet
    scaled = LazyDict(lambda fa: _packed(params, [[fa[1] * v % q for v in part] for part in units[fa[0]]]))
    # each distinct P as the pieces (a, j, n) with P = sum of a * U(n e_j)
    sums = []
    for P in distinct:
        *parts, poly = partial_fractions(P)
        sums.append(
            [(a, j, -n) for j, part in enumerate(parts) for n, a in enumerate(part, 1) if a]
            + [(a, 0, n) for n, a in enumerate(poly) if a]
        )

    def term_of(exps, pieces):
        nonlocal C, H
        out = 0
        for a, j, n in pieces:
            f = list(exps)
            f[j] += n
            t = scaled[tuple(f), a]
            if t > H:  # t has more fields than H: widen C and H over them
                ones = ((1 << -(-t.bit_length() // w) * w) - 1) // ((1 << w) - 1)
                C, H = ((1 << guard) - q) * ones, ones << guard
            s = out + t
            out = s - q * (((s + C) & H) >> guard)
        return out

    def moves_of(exps):
        # [(exps of g * s, U(exps) * s.P packed) for s in gens], and the half letters' entries
        terms = [term_of(exps, pieces) for pieces in sums]
        out = []
        for sexps, p in letters:
            e = tuple(a + b for a, b in zip(exps, sexps))
            out.append((pool.setdefault(e, e), terms[p]))
        return out, [out[n] for n in half]

    moves = LazyDict(moves_of)

    def stepper(which):
        def step(state):
            exps, x = state
            return [(e, (s := x + t) - q * (((s + C) & H) >> guard)) for e, t in moves[exps][which]]

        return step

    start = identity(params)
    start = (pool.setdefault(start.exps, start.exps), _packed(params, partial_fractions(start.P)))
    return stepper(0), stepper(1), start


def _word_ball(params: RingParams, radius: int, gens: tuple, edges=None):
    """The shared layered BFS in the word metric, run on _word_step's states.

    Returns the states in discovery order and their depths; edges, if
    given, gets the edge list as in _layered_bfs, the outer sphere's by
    _word_step's half step, and the ball takes the vertex budget. Edges are
    asked for only over generators or subgroup_generators, whose exps at
    d = 2 are (+-k,): the ball is bipartite, so no half step is passed.
    """
    step, half_step, start = _word_step(params, gens)
    if params.d == 2:
        half_step = None
    found, _, depths = _layered_bfs(start, radius, step, "elements", edges, half_step)
    return found, depths


def _check_word_ball(gp: GraphParams, radius: int) -> None:
    """Refuse, before any letter is built, a word ball with Cayley graph DL(gp) over the budget.

    Its L letters, the degree of DL(gp), make at most 1 + L + ... + L^radius
    words, summed with an early stop; past the budget, a _layered_bfs over
    the signature states of the graph ball it maps onto raises the word
    BFS's BudgetError. Last the letters are checked as a degree is
    (_check_degree): a radius-0 ball walks none, but would build them all.
    """
    _check_radius(radius)
    letters = expected_degree(gp)
    bound = term = 1
    for _ in range(radius):
        term *= letters
        bound += term
        if bound > dlgraph.DEFAULT_VERTEX_BUDGET:
            _layered_bfs(
                ((0, 0),) * gp.d, radius, partial(_state_moves, gp.k), "elements",
                weight=partial(_state_size, gp.q, gp.k),
            )
            break
    _check_degree(gp)


def _generated_word_ball(params: RingParams, radius: int, edges=None):
    """_word_ball over generators(params), checked by _check_word_ball first."""
    _check_word_ball(graph_params(params.d, params.q), radius)
    return _word_ball(params, radius, generators(params), edges)


def _element(params: RingParams, state: tuple) -> GroupElement:
    """The group element of a word-ball state (exps, packed partial-fraction digits)."""
    exps, x = state
    return GroupElement(params, exps, from_partial_fractions(params, _digits(params, x)))


def cayley_ball(
    params: RingParams,
    radius: int,
    gens: Optional[Sequence[GroupElement]] = None,
) -> CayleyBall:
    if gens is None:
        found, depths = _generated_word_ball(params, radius)
    else:
        gens = tuple(gens)
        if any(g.params != params for g in gens):
            raise ValueError("elements live in different groups")
        found, depths = _word_ball(params, radius, gens)
    found = [_element(params, state) for state in found]
    keys = [element_key(g) for g in found]
    order, _ = _key_order(keys)
    return CayleyBall(params, radius, *(tuple(col[i] for i in order) for col in (found, keys, depths)))


# ---------------------------------------------------------------------------
# correspondence with the graph


def _image_reader(params: RingParams):
    """The correspondence as a function of a word-ball state: read(exps, x).

    Each place's partial-fraction digits are read off x's bytes (_places).
    At finite place i the expansion of P in s = t + l_i splits at exponent
    0: below it the digits are P's own at place i, from 0 up the sum mod q
    of the regular expansions at i of the other places' terms (t + l_j)^(-n)
    and t^n, weighted by their digits. At infinity the split falls between
    0 and 1: up to 0 the digits are the polynomial part's, above it the
    expansions of the terms (t + l_j)^(-n). Each basis expansion is kept,
    as its nonzero (position, digit) pairs, for the reader's lifetime.
    """
    q, d = params.q, params.d
    w = _field_width(q)
    gp = graph_params(d, q, 1)
    cut = correspondence_cutoffs(d)
    first = (0,) * (d - 1) + (1,)  # the lowest regular exponent of each place

    def expansion(key):
        # nonzero digits of the m-th basis term of part j at the place, on [first, hi]
        place, j, m, hi = key
        if j < d - 1:
            den = tuple(m + 1 if t == j else 0 for t in range(d - 1))
            term = RationalElement(params, (1,), den)
        else:
            term = RationalElement(params, (0,) * m + (1,), (0,) * (d - 1))
        digits = expand_local(term, place + 1, first[place], hi)
        return tuple((e, y) for e, y in enumerate(digits) if y)

    basis = LazyDict(expansion)

    def read(exps: tuple, x: int) -> DLVertex:
        digits = _places(x, w, d)
        levels = exps + (-sum(exps),)
        coords = []
        for i, own in enumerate(digits):
            lvl, c, lo = levels[i], cut[i], first[i]
            hi = lvl + c
            # own[m] sits at tree index top - m; loops beat comprehensions here
            top = lo - 1 - c
            out = []
            for m in range(len(own) - 1, max(lo - 1 - hi, 0) - 1, -1):
                if own[m]:
                    out.append((top - m, own[m]))
            if hi >= lo:
                acc = [0] * (hi - lo + 1)
                for j, part in enumerate(digits):
                    if j != i:
                        for m, a in enumerate(part):
                            if a:
                                for e, y in basis[i, j, m, hi]:
                                    acc[e] += a * y
                for e, t in enumerate(acc, lo - c):
                    if t % q:
                        out.append((e, t % q))
            # the indices are distinct, ascending and at most lvl, the values
            # in 1..q-1, and the levels sum to 0: a valid vertex of DL_d(q)
            coords.append(TreeVertex(lvl, tuple(out)))
        return DLVertex(gp, tuple(coords))

    return read


def correspond(params: RingParams, g: GroupElement) -> DLVertex:
    """Image of a group element in DL_d(q) under the digit correspondence.

    Place i < d gets the expansion digits of P in s = t + l_i below the
    cutoff exponent exps_i, the place at infinity those in u = 1/t up to
    -sum(exps), each at its tree index; _image_reader reads them.
    """
    return _image_reader(params)(g.exps, _packed(params, partial_fractions(g.P)))


class CorrespondenceReport(NamedTuple):
    params: RingParams
    radius: int
    ok: bool
    sphere_group: tuple
    sphere_graph: tuple
    interior_degree: int
    failures: tuple  # the first 20 failure messages
    failure_count: int  # all failures found, sampled or not


def validate_correspondence(params: RingParams, radius: int) -> CorrespondenceReport:
    """Check the ball of the given radius maps isomorphically onto the graph ball.

    The image map must be injective and land in the graph ball with word
    length equal to graph depth, and it must carry the Cayley ball's edges
    (generator moves between its elements) exactly onto the graph ball's
    edges; at d = 2 both balls are bipartite by depth and hold no edge
    within the outer sphere. Each image is read off the word-ball state by
    one _image_reader; an element becomes a normal form only to be named in
    a failure. The graph side is one _ball_search over coordinate tuples,
    each edge of ids a < b kept as a * n + b. Vertex keys only name graph
    edges with no preimage, listed in key order as a keyed ball's edges are.
    """
    cayley_ends = array("q")
    found, depths = _generated_word_ball(params, radius, cayley_ends)
    gp = graph_params(params.d, params.q, 1)
    graph_ends = array("q")
    coords, position, graph_depths = _ball_search(base_vertex(gp), radius, graph_ends)
    n = len(coords)
    it = iter(graph_ends)
    unmapped = {a * n + b for a, b in zip(it, it)}  # the graph edges no Cayley edge maps onto
    del graph_ends
    read = _image_reader(params)
    failures = []

    def name(i: int) -> str:
        return element_key(_element(params, found[i]))

    image = [None] * len(found)  # graph id of each element's image
    preimage = [None] * n
    for i, (state, dep) in enumerate(zip(found, depths)):
        v = read(*state)
        p = position.get(v.coords)
        if p is None:
            failures.append(f"image of {name(i)} outside the radius-{radius} ball: {dl_key(v)}")
        elif preimage[p] is not None:
            failures.append(f"not injective: {name(i)} and {name(preimage[p])} map to {dl_key(v)}")
        else:
            preimage[p] = i
            image[i] = p
            if graph_depths[p] != dep:
                failures.append(f"word length {dep} versus graph distance {graph_depths[p]} for {name(i)}")

    it = iter(cayley_ends)
    for i, j in zip(it, it):
        a, b = image[i], image[j]
        if a is None or b is None:
            continue  # an endpoint has already failed
        e = a * n + b if a < b else b * n + a
        if e in unmapped:
            unmapped.remove(e)
        else:
            failures.append(f"edge {name(i)} -> {name(j)} not preserved")
    if unmapped:
        keys = [dl_key(DLVertex(gp, c)) for c in coords]
        order, pos = _key_order(keys)
        for x, y in sorted(sorted((pos[a], pos[b])) for a, b in (divmod(e, n) for e in unmapped)):
            failures.append(f"graph edge {keys[order[x]]} -- {keys[order[y]]} has no preimage")

    return CorrespondenceReport(
        params=params,
        radius=radius,
        ok=not failures,
        sphere_group=tuple(map(depths.count, range(radius + 1))),
        sphere_graph=tuple(map(graph_depths.count, range(radius + 1))),
        interior_degree=expected_degree(gp),
        failures=tuple(failures[:20]),
        failure_count=len(failures),
    )


# ---------------------------------------------------------------------------
# the index-k subgroup


def subgroup_membership(g: GroupElement, k: int) -> bool:
    """Whether the first exponent is divisible by k."""
    return coset_index(g, k) == 0


def _check_index(k) -> None:
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")


def coset_index(g: GroupElement, k: int) -> int:
    _check_index(k)
    return g.exps[0] % k


def _generating_set(params: RingParams, k: int) -> "tuple[GroupElement, ...]":
    """The index-k generating set with inverses, in key order, one letter per edge of a DL_d^k(q) vertex.

    Three families: k-fold products of first-place generators; products of
    k1 ratio generators (first place against a later one) followed by k - k1
    first-place generators; and every generator not involving the first
    place at all. A one-factor product is its factor, so k = 1 multiplies
    nothing.
    """
    d, q = params.d, params.q
    out = {}

    def add(el: GroupElement) -> None:
        out.setdefault(element_key(el), el)
        inv = invert(el)
        out.setdefault(element_key(inv), inv)

    for bs in product(range(q), repeat=k):
        add(reduce(multiply, [gen_first(params, 1, b) for b in bs]))
    for k1 in range(1, k + 1):
        for js in product(range(2, d), repeat=k1):
            for bs1 in product(range(q), repeat=k1):
                ratios = [gen_ratio(params, 1, j, b) for j, b in zip(js, bs1)]
                for bs2 in product(range(q), repeat=k - k1):
                    add(reduce(multiply, ratios + [gen_first(params, 1, b) for b in bs2]))
    for i in range(2, d):
        for b in range(q):
            add(gen_first(params, i, b))
            for j in range(2, d):
                if i != j:
                    add(gen_ratio(params, i, j, b))
    gens = tuple(out[kk] for kk in sorted(out))
    expected = expected_degree(graph_params(d, q, k))
    if len(gens) != expected:
        raise AssertionError(f"generator count {len(gens)} != {expected}")
    return gens


def subgroup_generators(params: RingParams, k: int) -> "tuple[GroupElement, ...]":
    """Generators of the index-k subgroup, closed under inversion."""
    _check_index(k)
    gens = _generating_set(params, k)
    if not all(subgroup_membership(el, k) for el in gens):
        raise AssertionError("subgroup generator fails membership")
    return gens


def subgroup_ball(params: RingParams, k: int, depth: int) -> CayleyBall:
    """Ball in the subgroup word metric (each letter is an ambient k-step)."""
    return cayley_ball(params, depth, gens=subgroup_generators(params, k))


def index_check(params: RingParams, k: int) -> "tuple[set, int, bool]":
    """The index-k checks, read off word-ball states: (cosets, positives, covered).

    cosets is the set of first exponents mod k over the radius-k ball;
    positives counts the elements of the radius-3 ball in the subgroup
    (first exponent divisible by k); covered says whether each of them is a
    product of at most 3 subgroup generators. B_3 = B_2 ∪ B_2·S and S is
    closed under inversion, so a positive g is covered iff g or some g·s
    lies in the depth-2 subgroup ball; the g·s come from that ball's own
    step. No state becomes a normal form. Both balls are checked before
    either is walked, the ambient one first; the subgroup's graph is DL_d^k(q).
    """
    _check_index(k)
    radius = max(k, 3)
    _check_word_ball(graph_params(params.d, params.q), radius)
    _check_word_ball(graph_params(params.d, params.q, k), 2)
    found, depths = _generated_word_ball(params, radius)
    cosets = {exps[0] % k for (exps, _), dep in zip(found, depths) if dep <= k}
    positives = [st for st, dep in zip(found, depths) if dep <= 3 and st[0][0] % k == 0]
    step, _, start = _word_step(params, subgroup_generators(params, k))
    _, reached, _ = _layered_bfs(start, 2, step, "elements")
    covered = all(st in reached or any(x in reached for x in step(st)) for st in positives)
    return cosets, len(positives), covered
