"""Group law, generators, correspondence, and index-k subgroup checks.

Hand-derived products and images serve as fixed oracles; structural laws
(associativity, inversion, exponent additivity) run over seeded random
words so the normal form is exercised away from the generators.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from dllab import dlgraph, group
from dllab.algebra import partial_fractions, rat_zero, rational, ring_params
from dllab.dlgraph import (
    BudgetError,
    DLVertex,
    _layered_bfs,
    ball,
    base_vertex,
    dl_key,
    edge_pairs,
    graph_params,
    sphere_sizes,
)
from dllab.group import (
    cayley_ball,
    correspond,
    correspondence_cutoffs,
    coset_index,
    element_key,
    gen_first,
    gen_ratio,
    generators,
    identity,
    invert,
    multiply,
    subgroup_ball,
    subgroup_generators,
    subgroup_membership,
    validate_correspondence,
)

from oracles import (
    correspond_by_expansion,
    dl_adjacent,
    index_check_by_elements,
    validate_correspondence_by_ball,
)


def random_word(params, rng, length):
    gens = generators(params)
    el = identity(params)
    for _ in range(length):
        el = multiply(el, rng.choice(gens))
    return el


# ---------------------------------------------------------------------------
# group law


def test_multiply_examples():
    p = ring_params(2, 2)
    g = gen_first(p, 1, 0)  # (t, 0)
    h = gen_first(p, 1, 1)  # (t, 1)
    gh = multiply(g, h)
    hg = multiply(h, g)
    assert gh.exps == (2,) and gh.P == rational(p, (0, 1))  # (t^2, t)
    assert hg.exps == (2,) and hg.P == rational(p, (1,))  # (t^2, 1)
    assert gh != hg  # the group is not abelian
    e = identity(p)
    assert multiply(e, g) == g and multiply(g, e) == g


def test_invert_examples():
    p = ring_params(2, 2)
    g = multiply(gen_first(p, 1, 0), gen_first(p, 1, 1))  # (t^2, t)
    gi = invert(g)
    assert gi.exps == (-2,)
    assert multiply(g, gi) == identity(p)
    assert multiply(gi, g) == identity(p)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 3)])
def test_group_axioms_random(q, d):
    p = ring_params(q, d)
    rng = random.Random(400 + 10 * q + d)
    for _ in range(30):
        a = random_word(p, rng, rng.randrange(6))
        b = random_word(p, rng, rng.randrange(6))
        c = random_word(p, rng, rng.randrange(6))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, invert(a)) == identity(p)
        assert multiply(invert(a), a) == identity(p)
        assert invert(multiply(a, b)) == multiply(invert(b), invert(a))
        ab = multiply(a, b)
        assert ab.exps == tuple(x + y for x, y in zip(a.exps, b.exps))


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("q,d,count", [(2, 2, 4), (3, 2, 6), (2, 3, 12), (3, 3, 18)])
def test_generator_count(q, d, count):
    p = ring_params(q, d)
    gens = generators(p)
    assert len(gens) == count == d * (d - 1) * q
    keys = {element_key(g) for g in gens}
    assert keys == {element_key(invert(g)) for g in gens}  # closed under inversion


def test_ratio_generator_inverse_is_swapped_ratio():
    p = ring_params(3, 3)
    for i, j in ((1, 2), (2, 1)):
        for b in range(3):
            g = gen_ratio(p, i, j, b)
            assert invert(g) == gen_ratio(p, j, i, (-b) % 3)


def test_cayley_ball_small():
    p = ring_params(2, 2)
    cb0 = cayley_ball(p, 0)
    assert len(cb0.elements) == 1
    cb1 = cayley_ball(p, 1)
    assert sphere_sizes(cb1) == (1, 4)
    cb2 = cayley_ball(p, 2)
    sizes = sphere_sizes(cb2)
    assert sizes[0] == 1 and sizes[1] == 4
    assert len(cb2.elements) == sum(sizes)
    assert list(cb2.keys) == sorted(cb2.keys)


# ---------------------------------------------------------------------------
# correspondence


def test_correspond_identity_and_generators():
    p = ring_params(2, 2)
    gp = graph_params(2, 2)
    assert correspond(p, identity(p)) == base_vertex(gp)
    base = base_vertex(gp)
    images = set()
    for g in generators(p):
        v = correspond(p, g)
        assert dl_adjacent(base, v)
        images.add(dl_key(v))
    assert len(images) == 4  # the four base neighbors, one per generator


def test_correspond_hand_values():
    p = ring_params(2, 2)
    g = gen_first(p, 1, 1)  # (t, 1)
    v = correspond(p, g)
    assert dl_key(v) == "1:1=1|-1:"
    gi = invert(g)  # (-1 exponent, digit near infinity)
    vi = correspond(p, gi)
    assert dl_key(vi) == "-1:|1:1=1"


def test_correspondence_cutoffs_shape():
    assert correspondence_cutoffs(2) == (-1, 0)
    assert correspondence_cutoffs(4) == (-1, -1, -1, 0)


# (d, q, radius): word balls of 208 to 2,105 elements
READER_CASES = [(2, 2, 5), (2, 3, 5), (2, 5, 4), (3, 2, 3), (3, 3, 3), (3, 5, 2), (4, 3, 2)]


@pytest.mark.parametrize("d,q,radius", READER_CASES)
def test_image_reader_matches_expansion(d, q, radius):
    p = ring_params(q, d)
    states, _ = group._word_ball(p, radius, generators(p))
    read = group._image_reader(p)
    for st in states:
        assert read(*st) == correspond_by_expansion(p, group._element(p, st))


@pytest.mark.parametrize("d,q,radius", [(2, 3, 3), (3, 2, 2)])
@pytest.mark.parametrize("cut", [0, -1, 1])
def test_image_reader_reads_cutoffs_when_made(monkeypatch, d, q, radius, cut):
    p = ring_params(q, d)
    states, _ = group._word_ball(p, radius, generators(p))
    monkeypatch.setattr(group, "correspondence_cutoffs", lambda n: (cut,) * n)
    read = group._image_reader(p)
    for st in states:
        assert read(*st) == correspond_by_expansion(p, group._element(p, st), (cut,) * d)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5), (4, 3)])
def test_correspond_matches_expansion_on_generators(d, q):
    p = ring_params(q, d)
    for g in generators(p):
        for el in (g, invert(g)):
            assert correspond(p, el) == correspond_by_expansion(p, el)


@pytest.mark.parametrize("q,d,radius", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_validate_correspondence_small(q, d, radius):
    p = ring_params(q, d)
    report = validate_correspondence(p, radius)
    assert report.ok, report.failures
    assert report.sphere_group == report.sphere_graph
    gp = graph_params(d, q)
    assert report.sphere_graph == sphere_sizes(ball(base_vertex(gp), radius))


def test_validate_correspondence_word_lengths_match_distance():
    p = ring_params(2, 2)
    report = validate_correspondence(p, 3)
    assert report.ok
    assert report.interior_degree == 4
    assert report.failure_count == 0 and report.failures == ()


def test_validate_correspondence_counts_every_failure(monkeypatch):
    # a correspondence that sends every element to one vertex fails for all
    # but the first of the 39 elements, more than the 20 kept as samples
    base = correspond(ring_params(2, 2), identity(ring_params(2, 2)))
    monkeypatch.setattr(group, "_image_reader", lambda params: lambda exps, digits: base)
    report = validate_correspondence(ring_params(2, 2), 3)
    assert not report.ok
    assert len(report.failures) == 20
    assert report.failure_count >= 38


# (d, q, radius): the check must reject each broken correspondence below
MUTATION_CASES = [(2, 2, 3), (3, 2, 2), (2, 3, 2)]


@pytest.mark.parametrize("d,q,radius", MUTATION_CASES)
@pytest.mark.parametrize("cut", [0, -1])
def test_validate_correspondence_rejects_uniform_cutoffs(monkeypatch, d, q, radius, cut):
    monkeypatch.setattr(group, "correspondence_cutoffs", lambda n: (cut,) * n)
    report = validate_correspondence(ring_params(q, d), radius)
    assert not report.ok
    assert report.failure_count >= len(report.failures) > 0


def test_validate_correspondence_failure_messages(monkeypatch):
    # the messages name elements by their normal-form keys, byte for byte
    monkeypatch.setattr(group, "correspondence_cutoffs", lambda n: (0,) * n)
    report = validate_correspondence(ring_params(2, 2), 3)
    assert report.failure_count == 62
    assert report.failures[:3] == (
        "word length 1 versus graph distance 3 for (-1,)|(1,)|(1,)",
        "word length 1 versus graph distance 3 for (1,)|(1,)|(0,)",
        "image of (-2,)|(1,)|(2,) outside the radius-3 ball: -2:-2=1|2:2=1",
    )


def unswappable_pair(gb, depth):
    """Two vertices at one depth of a graph ball that swap to a non-automorphism.

    Prefers a pair with the same neighbours nearer the centre, so that only
    edges within the sphere or beyond it tell the two apart.
    """
    nbrs = [set() for _ in gb.vertices]
    for i, j in edge_pairs(gb):
        nbrs[i].add(j)
        nbrs[j].add(i)
    level = [i for i, dep in enumerate(gb.depths) if dep == depth]
    pairs = [(a, b) for a, b in combinations(level, 2) if nbrs[a] - {b} != nbrs[b] - {a}]

    def nearer(v):
        return {w for w in nbrs[v] if gb.depths[w] < depth}

    if not pairs:
        return None
    a, b = min(pairs, key=lambda ab: nearer(ab[0]) != nearer(ab[1]))
    return DLVertex(gb.params, gb.vertices[a]), DLVertex(gb.params, gb.vertices[b])


def swapped_reader(true_reader, a, b):
    """An image reader that exchanges the images a and b of true_reader's."""
    swap = {a: b, b: a}

    def swapped(params):
        read = true_reader(params)

        def swapped_read(exps, digits):
            v = read(exps, digits)
            return swap.get(v, v)

        return swapped_read

    return swapped


@pytest.mark.parametrize("d,q,radius", MUTATION_CASES)
@pytest.mark.parametrize("below", [0, 1])
def test_validate_correspondence_rejects_swapped_images(monkeypatch, d, q, radius, below):
    # injective, depth-preserving and onto the ball: only edges can tell
    gb = ball(base_vertex(graph_params(d, q)), radius)
    a, b = unswappable_pair(gb, radius - below)
    monkeypatch.setattr(group, "_image_reader", swapped_reader(group._image_reader, a, b))
    report = validate_correspondence(ring_params(q, d), radius)
    assert report.sphere_group == report.sphere_graph
    assert not report.ok
    assert all("edge" in f for f in report.failures)


def correspondence_mutations(d, q, radius):
    """(label, attribute of group, value) for the true check and for each
    broken correspondence the tests above apply: uniform cutoffs, swapped
    images and a constant reader. A swap needs two vertices at its depth
    that differ.
    """
    yield "true", None, None
    for cut in (0, -1):
        yield f"cut {cut}", "correspondence_cutoffs", lambda n, cut=cut: (cut,) * n
    gb = ball(base_vertex(graph_params(d, q)), radius)
    for below in (0, 1):
        pair = unswappable_pair(gb, radius - below)
        if pair is not None:
            yield f"swap below {below}", "_image_reader", swapped_reader(group._image_reader, *pair)
    yield "constant", "_image_reader", lambda params: lambda exps, digits: gb.center


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_validate_correspondence_matches_keyed_ball_oracle(monkeypatch, d, q, radius):
    p = ring_params(q, d)
    labels = []
    for label, attr, value in correspondence_mutations(d, q, radius):
        with monkeypatch.context() as m:
            if attr is not None:
                m.setattr(group, attr, value)
            got = validate_correspondence(p, radius)
            want = validate_correspondence_by_ball(p, radius)
        assert got == want, label
        assert got.ok == (label == "true" or radius == 0), label
        labels.append(label)
    assert radius < 2 or {"swap below 0", "swap below 1"} <= set(labels)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_word_step_terms_match_scaled_generators(d, q):
    # each listed term is the digits of U(exps) * s.P, on every exps vector
    # a radius-2 ball steps from: the step from (exps, 0) lists the terms
    p = ring_params(q, d)
    zero = ((),) * d
    sets = [generators(p)] + [subgroup_generators(p, k) for k in (1, 2, 3)]
    for gens in sets:
        moves = {(0,) * (d - 1)} | {s.exps for s in gens}
        met = moves | {tuple(a + b for a, b in zip(e, s.exps)) for e in moves for s in gens}
        step, _, _ = group._word_step(p, gens)
        for exps in sorted(met):
            want = [
                (tuple(a + b for a, b in zip(exps, s.exps)), partial_fractions(group._scale_by_monomial(s.P, exps)))
                for s in gens
            ]
            assert step((exps, zero)) == want, exps


# (d, q, k, radius): balls of 55 to 2,016 elements
WORD_BALL_CASES = [
    (2, 2, 1, 8), (2, 2, 2, 4), (2, 2, 3, 3),
    (2, 3, 1, 5), (2, 3, 2, 2), (2, 3, 3, 1),
    (3, 2, 1, 4), (3, 2, 2, 2), (3, 2, 3, 1),
    (3, 3, 1, 2), (3, 3, 2, 1), (3, 3, 3, 1),
    (4, 3, 1, 2), (4, 3, 2, 1),
]


def end_pairs(ends):
    """The (i, j) pairs of a flat edge-end list, as _layered_bfs appends them."""
    it = iter(ends)
    return list(zip(it, it))


def multiply_word_ball(params, radius, gens):
    """The word ball by the general group law: multiply and element_key.

    The edges within the outer sphere come from a full step over it, each
    kept from its endpoint with the smaller id, at every d.
    """
    ends = []

    def step(g):
        return [multiply(g, s) for s in gens]

    found, ids, depths = _layered_bfs(identity(params), radius, step, "elements", ends)
    edges = end_pairs(ends)
    for i, (g, dep) in enumerate(zip(found, depths)):
        if dep == radius:
            for j in map(ids.get, step(g)):
                if j is not None and i < j:
                    edges.append((i, j))
    return found, depths, edges


@pytest.mark.parametrize("d,q,k,radius", WORD_BALL_CASES)
def test_digit_word_ball_matches_multiply(d, q, k, radius):
    p = ring_params(q, d)
    gens = subgroup_generators(p, k)
    found, depths, edges = multiply_word_ball(p, radius, gens)
    got_ends = []
    states, got_depths = group._word_ball(p, radius, gens, got_ends)
    assert states == [(g.exps, partial_fractions(g.P)) for g in found]
    assert [group._element(p, st) for st in states] == found
    assert got_depths == depths
    # the outer sphere's edges come in another order, each listed once
    assert sorted(end_pairs(got_ends)) == sorted(edges)
    cb = cayley_ball(p, radius, gens=gens)
    assert cb.keys == tuple(sorted(element_key(g) for g in found))
    assert [element_key(g) for g in cb.elements] == list(cb.keys)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_step_keeps_one_letter_of_each_inverse_pair(d, q, k):
    # (d = 4 needs q >= 3.) The identity times a letter is the letter, so
    # the states half_step lists from the identity name the letters it keeps
    p = ring_params(q, d)
    sets = [subgroup_generators(p, k)] + ([generators(p)] if k == 1 else [])
    for gens in sets:
        keys = [element_key(s) for s in gens]
        assert {element_key(invert(s)) for s in gens} == set(keys)
        assert all(any(s.exps) for s in gens)
        step, half_step, start = group._word_step(p, gens)
        kept = set(half_step(start))
        half = {key for key, st in zip(keys, step(start)) if st in kept}
        assert len(kept) == len(half) == len(gens) // 2
        for s, key in zip(gens, keys):
            assert (key in half) != (element_key(invert(s)) in half), key


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_generator_exps_decide_the_parity(d, q):
    # at d = 2 every generator of an index-k set moves exps by (+-k,), so
    # word length is exps[0] / k mod 2; at d = 3 some generator has an
    # even exps sum, so that sum gives no such parity
    p = ring_params(q, d)
    sets = [(1, generators(p))] + [(k, subgroup_generators(p, k)) for k in (1, 2, 3)]
    for k, gens in sets:
        if d == 2:
            assert {g.exps for g in gens} == {(k,), (-k,)}
        else:
            assert any(sum(g.exps) % 2 == 0 for g in gens)


@pytest.mark.parametrize(
    "d,q,k,radius", [(2, 2, 1, 6), (2, 3, 2, 2), (2, 2, 3, 2), (3, 2, 1, 2), (3, 3, 2, 1)]
)
def test_word_ball_steps_its_outer_sphere_only_at_d_above_2(monkeypatch, d, q, k, radius):
    # the BFS steps every state inside the radius once; only at d >= 3
    # does the half step then step the outer sphere (its edges are checked
    # against the multiply BFS, which always makes a full pass there, in
    # test_digit_word_ball_matches_multiply)
    p = ring_params(q, d)
    gens = subgroup_generators(p, k)
    stepped, half_stepped = [], []
    word_step = group._word_step

    def counted(params, gens):
        step, half_step, start = word_step(params, gens)
        return (
            lambda state: stepped.append(state) or step(state),
            lambda state: half_stepped.append(state) or half_step(state),
            start,
        )

    monkeypatch.setattr(group, "_word_step", counted)
    edges = []
    states, depths = group._word_ball(p, radius, gens, edges)
    inside = [st for st, dep in zip(states, depths) if dep < radius]
    outer = [st for st, dep in zip(states, depths) if dep == radius]
    assert stepped == inside
    assert half_stepped == ([] if d == 2 else outer)


def test_word_balls_never_multiply(monkeypatch):
    p = ring_params(3, 3)
    ambient, sub = generators(p), subgroup_generators(p, 2)
    expected = [cayley_ball(p, 2, gens=ambient), cayley_ball(p, 1, gens=sub)]

    def refuse(g, h):
        raise AssertionError("a word ball multiplied")

    monkeypatch.setattr(group, "multiply", refuse)
    assert [cayley_ball(p, 2, gens=ambient), cayley_ball(p, 1, gens=sub)] == expected
    assert validate_correspondence(p, 2).ok


def test_validate_correspondence_reads_images_off_digits(monkeypatch):
    # a passing check converts no state back to a fraction, and it takes
    # partial-fraction digits once per distinct generator P, to decompose
    # it into unit powers, once per unit power met, and once for the
    # identity: 7 distinct P, 27 unit powers over the 19 exps vectors
    # reached, and the identity
    def refuse(params, digits):
        raise AssertionError("a passing check rebuilt a fraction")

    calls = []

    def counted(a):
        calls.append(a)
        return partial_fractions(a)

    monkeypatch.setattr(group, "from_partial_fractions", refuse)
    monkeypatch.setattr(group, "partial_fractions", counted)
    p = ring_params(3, 3)
    assert len({g.P for g in generators(p)}) == 7
    assert validate_correspondence(p, 2).ok
    assert len(calls) == 7 + 27 + 1 == 35


def test_cayley_ball_budget_reports_counts(monkeypatch):
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"budget 10: 11 elements reached at depth 2"):
        cayley_ball(ring_params(2, 2), 3)


def test_word_ball_budget_checked_before_any_word(monkeypatch):
    # a ball over the standard generators is counted by its signature
    # states, which the correspondence carries sphere by sphere, so an
    # over-budget ball is refused before any word is walked, naming the
    # first depth whose ball exceeds the budget, as the word BFS would
    def refuse(*args, **kwargs):
        raise AssertionError("a word step was built")

    monkeypatch.setattr(group, "_word_step", refuse)
    p = ring_params(2, 2)
    message = r"^ball of radius 16 exceeds budget 500000: 500001 elements reached at depth 16$"
    for run in (lambda: cayley_ball(p, 16), lambda: validate_correspondence(p, 16), lambda: group.index_check(p, 16)):
        with pytest.raises(BudgetError, match=message):
            run()
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 10)
    message = r"^ball of radius 3 exceeds budget 10: 11 elements reached at depth 2$"
    for run in (lambda: cayley_ball(p, 3), lambda: validate_correspondence(p, 3), lambda: group.index_check(p, 2)):
        with pytest.raises(BudgetError, match=message):
            run()


def test_custom_generators_checked_inside_their_bfs(monkeypatch):
    # only the standard generating set is counted before its walk; a
    # custom or subgroup set is checked by its own BFS, with the same text
    def refuse(*args, **kwargs):
        raise AssertionError("a signature state was counted")

    monkeypatch.setattr(group, "_state_size", refuse)
    p = ring_params(2, 2)
    assert sphere_sizes(cayley_ball(p, 3, gens=generators(p))) == (1, 4, 10, 24)
    assert len(subgroup_ball(p, 2, 2).elements) > 0
    monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"^ball of radius 3 exceeds budget 10: 11 elements reached at depth 2$"):
        cayley_ball(p, 3, gens=generators(p))


def test_word_ball_under_its_closed_form_bound_is_not_counted(monkeypatch):
    # D = d(d-1)q letters make at most 1 + D + ... + D^r words: 341 at
    # (2, 2, 4), within the budget, so no signature state is counted there;
    # at radius 16 the bound passes the budget and the count runs
    def refuse(*args, **kwargs):
        raise AssertionError("a signature state was counted")

    monkeypatch.setattr(group, "_state_size", refuse)
    p = ring_params(2, 2)
    assert sphere_sizes(cayley_ball(p, 4)) == sphere_sizes(cayley_ball(p, 4, gens=generators(p)))
    assert validate_correspondence(p, 4).ok
    for run in (lambda: cayley_ball(p, 16), lambda: validate_correspondence(p, 16)):
        with pytest.raises(AssertionError, match="a signature state was counted"):
            run()


def test_word_ball_refuses_bool_and_non_int_radius():
    p = ring_params(2, 2)
    for radius in (True, 2.0, -1):
        for run in (lambda: cayley_ball(p, radius), lambda: cayley_ball(p, radius, gens=generators(p))):
            with pytest.raises(ValueError, match=f"^radius must be a nonnegative integer, got {radius!r}$"):
                run()


def test_cayley_ball_refuses_letters_from_another_group():
    # the letters of the d = 3 group once raised IndexError in the d = 2
    # group's word BFS; any letter from another group is refused, with
    # multiply's message, before a word is walked
    p = ring_params(2, 2)
    for other in (ring_params(2, 3), ring_params(3, 2)):
        letter = generators(other)[0]
        for run in (lambda: multiply(identity(p), letter),
                    lambda: cayley_ball(p, 1, gens=generators(other)),
                    lambda: cayley_ball(p, 1, gens=[*generators(p), letter])):
            with pytest.raises(ValueError, match="^elements live in different groups$"):
                run()
    assert len(cayley_ball(p, 1, gens=generators(p)).elements) == 5


# ---------------------------------------------------------------------------
# index-k subgroup


def test_membership_and_cosets():
    p = ring_params(2, 2)
    g = gen_first(p, 1, 1)
    el = identity(p)
    for n in range(1, 7):
        el = multiply(el, g)
        for k in (2, 3, 4):
            assert subgroup_membership(el, k) == (n % k == 0)
            assert coset_index(el, k) == n % k


@pytest.mark.parametrize("k", [True, 2.0, 0], ids=["bool", "float", "zero"])
def test_coset_index_refuses_bool_and_non_int_k(k):
    # coset_index(g, True) once read the coset mod 1
    with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k!r}$"):
        coset_index(gen_first(ring_params(2, 2), 1, 1), k)


@pytest.mark.parametrize("k", [True, 2.0, 0], ids=["bool", "float", "zero"])
def test_subgroup_generators_refuse_bool_and_non_int_k(k):
    with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k!r}$"):
        subgroup_generators(ring_params(2, 2), k)


@pytest.mark.parametrize("k", [True, 2.0, 0], ids=["bool", "float", "zero"])
def test_index_check_refuses_bool_and_non_int_k(k):
    # index_check(p, True) once ran the k = 1 checks
    with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k!r}$"):
        group.index_check(ring_params(2, 2), k)


def test_subgroup_generators_k1_is_ambient():
    p = ring_params(2, 2)
    assert subgroup_generators(p, 1) == generators(p)


def explicit_generators(p):
    """The standard set built directly: each gen_first and its inverse, and
    each gen_ratio, in key order."""
    out = {}
    for place in range(1, p.d):
        for b in range(p.q):
            for el in (gen_first(p, place, b), invert(gen_first(p, place, b))):
                out.setdefault(element_key(el), el)
    for i, j in product(range(1, p.d), repeat=2):
        if i != j:
            for b in range(p.q):
                out.setdefault(element_key(gen_ratio(p, i, j, b)), gen_ratio(p, i, j, b))
    return tuple(out[key] for key in sorted(out))


def identity_first_subgroup_generators(p, k):
    """The index-k set with every product folded from the identity."""
    out = {}

    def add(el):
        for g in (el, invert(el)):
            out.setdefault(element_key(g), g)

    def word(letters):
        el = identity(p)
        for g in letters:
            el = multiply(el, g)
        return el

    for bs in product(range(p.q), repeat=k):
        add(word(gen_first(p, 1, b) for b in bs))
    for k1 in range(1, k + 1):
        for js in product(range(2, p.d), repeat=k1):
            for bs1 in product(range(p.q), repeat=k1):
                for bs2 in product(range(p.q), repeat=k - k1):
                    add(word(
                        [gen_ratio(p, 1, j, b) for j, b in zip(js, bs1)]
                        + [gen_first(p, 1, b) for b in bs2]
                    ))
    for i in range(2, p.d):
        for b in range(p.q):
            add(gen_first(p, i, b))
        for j in range(2, p.d):
            if i != j:
                for b in range(p.q):
                    add(gen_ratio(p, i, j, b))
    return tuple(out[key] for key in sorted(out))


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (2, 5), (4, 5)])
def test_generators_match_explicit_construction(d, q):
    p = ring_params(q, d)
    expected = explicit_generators(p)
    assert [element_key(g) for g in generators(p)] == [element_key(g) for g in expected]
    assert generators(p) == expected


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("k", [2, 3])
def test_subgroup_generators_match_identity_first_products(d, q, k):
    p = ring_params(q, d)
    expected = identity_first_subgroup_generators(p, k)
    got = subgroup_generators(p, k)
    assert [element_key(g) for g in got] == [element_key(g) for g in expected]
    assert got == expected


@pytest.mark.parametrize("k,count", [(2, 8), (3, 16)])
def test_subgroup_generators_d2(k, count):
    p = ring_params(2, 2)
    gens = subgroup_generators(p, k)
    assert len(gens) == count
    keys = {element_key(g) for g in gens}
    assert keys == {element_key(invert(g)) for g in gens}
    for g in gens:
        assert subgroup_membership(g, k)
        assert g.exps[0] in (-k, k)


def test_subgroup_generators_d3():
    p = ring_params(2, 3)
    gens = subgroup_generators(p, 2)
    assert len(gens) == len({element_key(g) for g in gens})
    for g in gens:
        assert subgroup_membership(g, 2)
        assert g.exps[0] in (-2, 0, 2)
    # some generator must move the second place only
    assert any(g.exps == (0, 1) for g in gens)
    # and some mixed product must trade first against second place
    assert any(g.exps[0] == 2 and g.exps[1] < 0 for g in gens)


def test_subgroup_words_cover_small_ball():
    p = ring_params(2, 2)
    k = 2
    ambient = cayley_ball(p, 2)
    positives = {
        key
        for key, el in zip(ambient.keys, ambient.elements)
        if subgroup_membership(el, k)
    }
    reached = set(subgroup_ball(p, k, 2).keys)
    assert positives <= reached


@pytest.mark.parametrize(
    "d,q,k,dropped,covered",
    # removing one generator (with its inverse) leaves every positive
    # reachable; removing two at (2,2,2) leaves some out of reach
    [(2, 2, 2, 1, True), (2, 2, 2, 2, False), (2, 3, 2, 1, True), (3, 2, 2, 1, True)],
)
def test_index_coverage_matches_full_subgroup_ball(monkeypatch, d, q, k, dropped, covered):
    """The depth-2 ball plus one generator step decides coverage like the depth-3 ball."""
    from dllab import cli

    p = ring_params(q, d)
    gens = list(subgroup_generators(p, k))
    for _ in range(dropped):
        gone = {element_key(gens[0]), element_key(invert(gens[0]))}
        gens = [g for g in gens if element_key(g) not in gone]
    monkeypatch.setattr(group, "subgroup_generators", lambda params, kk: tuple(gens))
    ambient = cayley_ball(p, 3)
    positives = [
        key
        for key, el in zip(ambient.keys, ambient.elements)
        if subgroup_membership(el, k)
    ]
    reached = set(cayley_ball(p, 3, gens=gens).keys)
    assert all(key in reached for key in positives) is covered
    checks = {name: ok for name, ok, _ in cli._check_index(p, k)}
    assert checks["index.coverage"] is covered


@pytest.mark.parametrize("d,q,k", list(product((2, 3), (2, 3), (2, 3))))
def test_index_check_matches_element_oracle(d, q, k):
    p = ring_params(q, d)
    assert group.index_check(p, k) == index_check_by_elements(p, k)


@pytest.mark.parametrize(
    "d,q,k,dropped,covered",
    # the cases of test_index_coverage_matches_full_subgroup_ball
    [(2, 2, 2, 1, True), (2, 2, 2, 2, False), (2, 3, 2, 1, True), (3, 2, 2, 1, True)],
)
def test_index_check_matches_element_oracle_on_dropped_generators(
    monkeypatch, d, q, k, dropped, covered
):
    p = ring_params(q, d)
    gens = list(subgroup_generators(p, k))
    for _ in range(dropped):
        gone = {element_key(gens[0]), element_key(invert(gens[0]))}
        gens = [g for g in gens if element_key(g) not in gone]
    monkeypatch.setattr(group, "subgroup_generators", lambda params, kk: tuple(gens))
    got = group.index_check(p, k)
    assert got == index_check_by_elements(p, k)
    assert got[2] is covered


@pytest.mark.parametrize("d,q,k", [(3, 2, 2), (2, 3, 3)])
def test_index_suite_reads_states(monkeypatch, capsys, d, q, k):
    # a passing index suite rebuilds no fraction and builds no keyed ball,
    # and it multiplies only to build the subgroup generators
    from dllab import cli

    calls = []
    real = group.multiply

    def counted(g, h):
        calls.append(1)
        return real(g, h)

    def refuse(*args, **kwargs):
        raise AssertionError("the index suite left the word-ball states")

    monkeypatch.setattr(group, "multiply", counted)
    subgroup_generators(ring_params(q, d), k)
    alone = len(calls)
    assert alone > 0
    calls.clear()
    monkeypatch.setattr(group, "from_partial_fractions", refuse)
    monkeypatch.setattr(group, "cayley_ball", refuse)
    argv = ["verify", "--d", str(d), "--q", str(q), "--k", str(k), "--assert", "index"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("PASS index.") == 2
    assert len(calls) == alone


def test_exactly_k_cosets_in_ball():
    p = ring_params(2, 2)
    for k in (2, 3, 4):
        cb = cayley_ball(p, k)
        seen = {coset_index(el, k) for el in cb.elements}
        assert seen == set(range(k))
