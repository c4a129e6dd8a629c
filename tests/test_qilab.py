"""Tests for boundary transducers, interior maps, and the tile map."""

import csv
import functools
import io
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from dllab import cli, dlgraph, qilab
from dllab.dlgraph import (
    Box,
    TreeVertex,
    box_members,
    box_size,
    canonical_box,
    cube_boundary,
    cube_side,
    dl_key,
    dl_vertex,
    graph_params,
    height_cube,
    rho,
    tree_descendants,
    tree_vertex,
)
from dllab.qilab import (
    BoundaryMap,
    ChainRecord,
    FiberAudit,
    LevelPerm,
    PrefixRewrite,
    Shift,
    audit_radius,
    clone_measure,
    compose,
    count_vertices_in_clone,
    distortion,
    fiber_count_audit,
    identity_map,
    interior_map,
    level_perm,
    make_tiling,
    map_from_description,
    measure_linear_constant,
    prefix_rewrite,
    preimage_count,
    psi_apply,
    psi_eval,
    shift_map,
    uf_chain_scan,
    umap_displacement,
    umap_eval,
)

from oracles import (
    distortion_by_lists,
    preimage_vertices,
    tile_box,
    umap_csv_by_writer,
    vertex_distance,
    vertices_in_clone,
)


def random_primitive(rng, q):
    kind = rng.choice(["shift", "perm", "prefix"])
    if kind == "shift":
        return Shift(rng.choice([-1, 1]))
    if kind == "perm":
        levels = rng.sample(range(-1, 2), rng.choice([1, 2]))
        perms = []
        for lvl in sorted(levels):
            table = list(range(q))
            rng.shuffle(table)
            perms.append((lvl, tuple(table)))
        return level_perm(perms)
    lo = rng.choice([-1, 0])
    hi = lo + rng.choice([0, 1])
    words = list(itertools.product(range(q), repeat=hi - lo + 1))
    images = list(words)
    rng.shuffle(images)
    return prefix_rewrite(lo, hi, zip(words, images))


def random_boundary_map(rng, q):
    return BoundaryMap(q, tuple(random_primitive(rng, q) for _ in range(rng.choice([1, 2]))))


# ---------------------------------------------------------------------------
# clones

class TestClones:
    def test_rejects_digit_above_level(self):
        with pytest.raises(ValueError):
            tree_vertex(1, [(2, 1)])

    def test_rejects_duplicate_index(self):
        with pytest.raises(ValueError):
            tree_vertex(3, [(1, 1), (1, 2)])

    def test_measure(self):
        assert clone_measure(tree_vertex(0), 2) == 1
        assert clone_measure(tree_vertex(3), 2) == Fraction(1, 8)
        assert clone_measure(tree_vertex(-2), 3) == 9

    def test_count_vertices_below_clone_level(self):
        # clone at level 1, vertices at level 3: q^2 completions
        assert count_vertices_in_clone(tree_vertex(1, [(0, 1)]), 3, 2) == 4

    def test_count_vertices_above_clone_level(self):
        # clone pins digits above the vertex level: they must vanish
        assert count_vertices_in_clone(tree_vertex(3, [(3, 1)]), 2, 2) == 0
        assert count_vertices_in_clone(tree_vertex(3, [(1, 1)]), 2, 2) == 1

    def test_vertices_match_counts(self):
        probes = [tree_vertex(1, [(0, 1)]), tree_vertex(3, [(3, 1)]), tree_vertex(3, [(1, 1)])]
        for c in probes + [tree_vertex(-1)]:
            for level in (0, 1, 2):
                vs = vertices_in_clone(c, level, 2)
                assert len(vs) == count_vertices_in_clone(c, level, 2)
                assert len(set(vs)) == len(vs)

    def test_clones_are_tree_vertices(self):
        c = tree_vertex(3, [(2, 1)])
        assert isinstance(c, TreeVertex)
        assert c == (3, ((2, 1),))
        assert hash(c) == hash((3, ((2, 1),)))
        words = list(itertools.product(range(2), repeat=2))
        prims = [Shift(1), level_perm([(0, (1, 0))]), prefix_rewrite(2, 3, zip(words, words[::-1]))]
        for p in prims:
            for img in p.clone_images(c) + p.inverse().clone_images(c):
                assert isinstance(img, TreeVertex)
                assert img == (img.level, img.digits)
            img = BoundaryMap(2, (p,)).vertex_image(c)
            assert isinstance(img, TreeVertex) and img.level == c.level

    @pytest.mark.parametrize("q", [2, 3])
    def test_vertices_in_clone_match_brute_force(self, q):
        # Every clone and vertex here carries digits only in [lo, level], so
        # the level-L vertices in a clone are among the level-L descendants
        # of the root at lo - 1: filter those by their zero-fill streams.
        lo, hi = -1, 2
        root = TreeVertex(lo - 1, ())

        def stream_in_clone(v, c):
            stream = dict(v.digits)
            return all(stream.get(i, 0) == dict(c.digits).get(i, 0) for i in range(lo, c.level + 1))

        for c_level in range(lo - 1, hi + 1):
            for c in tree_descendants(root, c_level - lo + 1, q):
                for level in range(lo - 1, hi + 1):
                    candidates = tree_descendants(root, level - lo + 1, q)
                    expected = [v for v in candidates if stream_in_clone(v, c)]
                    assert vertices_in_clone(c, level, q) == expected
                    assert count_vertices_in_clone(c, level, q) == len(expected)


# ---------------------------------------------------------------------------
# primitives

class TestShift:
    def test_stream_action(self):
        # the streams of a clone move with it, every digit m places up
        [img] = Shift(2).clone_images(tree_vertex(3, [(0, 1), (3, 2)]))
        assert img == (5, ((2, 1), (5, 2)))

    def test_clone_image_level_moves(self):
        [img] = Shift(1).clone_images(tree_vertex(2, [(0, 1)]))
        assert img == (3, ((1, 1),))

    def test_lam_and_bilip(self):
        assert (Shift(2).lam_exponent(), Shift(-2).bilip_exponent()) == (-2, 2)
        assert Fraction(3) ** BoundaryMap(3, (Shift(2),)).lam_exponent() == Fraction(1, 9)
        assert Fraction(2) ** BoundaryMap(2, (Shift(-1),)).lam_exponent() == 2
        assert 2 ** BoundaryMap(2, (Shift(-2),)).bilip_exponent() == 4

    def test_inverse_cancels(self):
        c = tree_vertex(2, [(1, 1)])
        [img] = Shift(3).clone_images(c)
        [back] = Shift(3).inverse().clone_images(img)
        assert back == c


class TestLevelPerm:
    def test_requires_bijection(self):
        with pytest.raises(ValueError):
            level_perm([(0, (0, 0))])

    def test_stream_action_swaps_digit(self):
        m = BoundaryMap(2, (level_perm([(1, (1, 0))]),))
        assert m.vertex_image(tree_vertex(1, [(1, 1)])) == tree_vertex(1)
        assert m.vertex_image(tree_vertex(1)) == tree_vertex(1, [(1, 1)])
        # index 1 lies above a level-0 vertex, so its image drops the new digit
        assert m.vertex_image(tree_vertex(0)) == tree_vertex(0)

    def test_clone_image_only_touches_pinned_levels(self):
        p = level_perm([(0, (1, 0)), (5, (1, 0))])
        [img] = p.clone_images(tree_vertex(2))
        # index 0 is pinned by the clone and flips; index 5 is free and stays free
        assert img == (2, ((0, 1),))

    def test_isometry_constants(self):
        p = level_perm([(0, (1, 0))])
        assert p.lam_exponent() == p.bilip_exponent() == 0
        m = BoundaryMap(2, (p,))
        assert Fraction(2) ** m.lam_exponent() == 2 ** m.bilip_exponent() == 1

    def test_measured_constant_is_one(self):
        m = BoundaryMap(2, (level_perm([(0, (1, 0)), (2, (1, 0))]),))
        check = measure_linear_constant(m, depth=4)
        assert check.constant is True
        assert check.ratio == 1


class TestPrefixRewrite:
    def swap_window(self, q=2):
        # reverse the two-digit window [0, 1]
        words = list(itertools.product(range(q), repeat=2))
        return prefix_rewrite(0, 1, ((w, w[::-1]) for w in words))

    def test_requires_bijection(self):
        with pytest.raises(ValueError):
            prefix_rewrite(0, 1, [((0, 0), (0, 0)), ((0, 1), (0, 0)),
                                  ((1, 0), (1, 0)), ((1, 1), (1, 1))])

    def test_stream_action(self):
        m = BoundaryMap(2, (self.swap_window(),))
        assert m.vertex_image(tree_vertex(3, [(0, 1), (3, 1)])) == tree_vertex(3, [(1, 1), (3, 1)])
        # a vertex below the window's top reads its image off one level-1 clone
        assert m.vertex_image(tree_vertex(0, [(0, 1)])) == tree_vertex(0)

    def test_clone_image_deep_clone_stays_single(self):
        rw = self.swap_window()
        [img] = rw.clone_images(tree_vertex(4, [(0, 1)]))
        assert img == (4, ((1, 1),))

    def test_clone_image_shallow_clone_splits(self):
        rw = self.swap_window()
        imgs = rw.clone_images(tree_vertex(0, [(0, 1)]))
        # one subclone per free digit at index 1: window (1,0) -> (0,1)
        # and window (1,1) -> (1,1)
        assert sorted(imgs) == [(1, ((0, 1), (1, 1))), (1, ((1, 1),))]
        total = sum(clone_measure(c, 2) for c in imgs)
        assert total == clone_measure(tree_vertex(0, [(0, 1)]), 2)

    @staticmethod
    def product_split_images(rw, c, q):
        """Reference: complete the free window digits by an explicit product, then rewrite."""
        lookup = dict(rw.table)
        free = range(c.level + 1, rw.hi + 1)
        out = []
        for combo in itertools.product(range(q), repeat=len(free)):
            dmap = dict(c.digits)
            dmap.update((i, b) for i, b in zip(free, combo) if b)
            word = tuple(dmap.pop(i, 0) for i in range(rw.lo, rw.hi + 1))
            dmap.update((rw.lo + off, b) for off, b in enumerate(lookup[word]) if b)
            out.append((rw.hi, tuple(sorted(dmap.items()))))
        return out

    @pytest.mark.parametrize("q", [2, 3])
    def test_shallow_split_matches_product_reference(self, q):
        rng = random.Random(20 + q)
        for lo, hi in [(0, 0), (0, 1), (-1, 1), (1, 2)]:
            words = list(itertools.product(range(q), repeat=hi - lo + 1))
            for _ in range(3):
                images = list(words)
                rng.shuffle(images)
                rw = prefix_rewrite(lo, hi, zip(words, images))
                root = TreeVertex(lo - 2, ())
                for level in range(lo - 2, hi):
                    for c in tree_descendants(root, level - root.level, q):
                        got = rw.clone_images(c)
                        want = self.product_split_images(rw, c, q)
                        if level < lo:
                            # the clone maps onto itself as one clone; its
                            # level-hi subclones are the reference's split
                            refined = [
                                s for g in got for s in tree_descendants(g, hi - g.level, q)
                            ]
                            assert sorted(refined) == sorted(want)
                        else:
                            assert got == want
                            assert len(got) == q ** (hi - level)

    @pytest.mark.parametrize(
        "words",
        [
            [(1,)],
            [(-1,), (1,)],
            [(0,), (2,)],
            [(0, 0), (0, 1), (1, 0), (1, 2)],
            [(0, 0), (0, 1), (1, 1)],
        ],
    )
    def test_table_short_of_a_power_alphabet_rejected(self, words):
        width = len(words[0])
        with pytest.raises(ValueError, match="^table does not cover a full power alphabet$"):
            prefix_rewrite(0, width - 1, ((w, w) for w in words))

    def test_coverage_builds_no_more_words_than_the_table_holds(self, monkeypatch):
        # one word over a 41-digit window: the 2**41 window words are never built
        product = itertools.product

        def bounded(*iterables, repeat=1):
            assert repeat <= 2, f"built the words of a {repeat}-digit window"
            return product(*iterables, repeat=repeat)

        monkeypatch.setattr(qilab.itertools, "product", bounded)
        word = (1,) + (0,) * 40
        with pytest.raises(ValueError, match="^table does not cover a full power alphabet$"):
            PrefixRewrite(0, 40, ((word, word),))
        assert prefix_rewrite(0, 1, ((w, w) for w in product(range(3), repeat=2))).hi == 1

    def test_measure_preserving(self):
        rw = self.swap_window()
        assert rw.lam_exponent() == 0
        check = measure_linear_constant(BoundaryMap(2, (rw,)), depth=3)
        assert check.constant and check.ratio == 1


# ---------------------------------------------------------------------------
# boundary maps and measure scalars

class TestBoundaryMaps:
    def test_shift_lam_values(self):
        for q in (2, 3):
            for m in range(-2, 3):
                check = measure_linear_constant(shift_map(q, m), depth=4)
                assert check.constant
                assert check.ratio == Fraction(q) ** (-m)
                assert Fraction(q) ** shift_map(q, m).lam_exponent() == Fraction(q) ** (-m)

    def test_identity_lam(self):
        check = measure_linear_constant(identity_map(2), depth=3)
        assert check.constant and check.ratio == 1

    def test_lam_multiplicative_on_random_pairs(self):
        rng = random.Random(17)
        for _ in range(20):
            q = rng.choice([2, 3])
            f = random_boundary_map(rng, q)
            g = random_boundary_map(rng, q)
            fg = compose(f, g)
            span = fg.source_span()
            depth = max(3, (span[1] if span else 0) + 1)
            mf = measure_linear_constant(f, depth)
            mg = measure_linear_constant(g, depth)
            mfg = measure_linear_constant(fg, depth)
            assert mf.constant and mg.constant and mfg.constant
            assert mfg.ratio == mf.ratio * mg.ratio
            assert mf.ratio == Fraction(q) ** f.lam_exponent()
            assert mg.ratio == Fraction(q) ** g.lam_exponent()

    def test_inverse_acts_as_identity_on_streams(self):
        # a vertex's image is its zero-fill stream's image, read at its height
        rng = random.Random(7)
        for _ in range(20):
            q = rng.choice([2, 3])
            f = random_boundary_map(rng, q)
            round_trip = compose(f, f.inverse())
            digits = [(i, rng.randrange(q)) for i in range(-2, 4)]
            c = tree_vertex(3, [(i, v) for i, v in digits if v])
            assert round_trip.vertex_image(c) == c

    def test_clone_mass_conservation(self):
        rng = random.Random(5)
        for _ in range(20):
            q = rng.choice([2, 3])
            f = random_boundary_map(rng, q)
            c = tree_vertex(2, [(0, 1), (2, q - 1)])
            images = f.clone_images(c)
            lam = Fraction(q) ** f.lam_exponent()
            assert sum(clone_measure(ci, q) for ci in images) == lam * clone_measure(c, q)
            back = [c2 for ci in images for c2 in f.clone_preimages(ci)]
            assert sum(clone_measure(ci, q) for ci in back) == clone_measure(c, q)

    @pytest.mark.parametrize("q", [2, 3])
    def test_clone_preimages_match_reversed_primitives(self, monkeypatch, q):
        rng = random.Random(40 + q)
        for _ in range(20):
            f = BoundaryMap(q, tuple(random_primitive(rng, q) for _ in range(rng.choice([1, 2, 3]))))
            probes = [tree_vertex(-2), tree_vertex(3, [(3, 1)])] + [
                tree_vertex(lvl, [(i, rng.randrange(1, q)) for i in rng.sample(range(-2, lvl + 1), 2)])
                for lvl in (0, 1, 2)
            ]
            for c in probes:
                expected = [c]
                for p in reversed(f.prims):
                    expected = [c2 for c1 in expected for c2 in p.inverse().clone_images(c1)]
                assert f.clone_preimages(c) == expected
        # the inverse is built on the first call only
        f = BoundaryMap(q, (Shift(1), level_perm([(0, tuple(reversed(range(q))))])))
        calls = Counter()
        inverse = BoundaryMap.inverse
        monkeypatch.setattr(BoundaryMap, "inverse", lambda m: calls.update(["inverse"]) or inverse(m))
        first = f.clone_preimages(tree_vertex(1, [(1, 1)]))
        assert f.clone_preimages(tree_vertex(1, [(1, 1)])) == first
        assert f.clone_preimages(tree_vertex(0)) == [tree_vertex(-1, [(-1, q - 1)])]
        assert calls["inverse"] == 1

    def test_description_roundtrip(self):
        # random descriptions, their lists in any order, against the maps
        # the primitive classes build from sorted tables
        rng = random.Random(11)
        for _ in range(40):
            q = rng.choice([2, 3])
            desc, prims = [], []
            for _ in range(rng.choice([0, 1, 2, 3])):
                kind = rng.choice(["shift", "perm", "prefix"])
                if kind == "shift":
                    m = rng.randint(-3, 3)
                    desc.append({"kind": kind, "m": m})
                    prims.append(Shift(m))
                elif kind == "perm":
                    levels = rng.sample(range(-2, 3), rng.randint(0, 2))
                    perms = [(lvl, rng.sample(range(q), q)) for lvl in levels]
                    desc.append({"kind": kind, "perms": [{"index": i, "table": t} for i, t in perms]})
                    prims.append(LevelPerm(tuple(sorted((i, tuple(t)) for i, t in perms))))
                else:
                    lo = rng.randint(-2, 1)
                    hi = lo + rng.choice([0, 1])
                    words = list(itertools.product(range(q), repeat=hi - lo + 1))
                    pairs = list(zip(words, rng.sample(words, len(words))))
                    rng.shuffle(pairs)
                    table = [[list(w), list(v)] for w, v in pairs]
                    desc.append({"kind": kind, "lo": lo, "hi": hi, "table": table})
                    prims.append(PrefixRewrite(lo, hi, tuple(sorted(pairs))))
            assert map_from_description(q, json.loads(json.dumps(desc))) == BoundaryMap(q, tuple(prims))

    def test_depth_below_span_rejected(self):
        rw = prefix_rewrite(2, 3, (
            (w, w[::-1]) for w in itertools.product(range(2), repeat=2)
        ))
        with pytest.raises(ValueError):
            measure_linear_constant(BoundaryMap(2, (rw,)), depth=1)

    def test_probe_budget_guard(self, monkeypatch):
        monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 100)
        with pytest.raises(ValueError):
            measure_linear_constant(shift_map(2, 1), depth=40)

    def test_probe_budget_is_a_budget_error(self, monkeypatch):
        monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 100)
        assert issubclass(dlgraph.BudgetError, ValueError)
        with pytest.raises(dlgraph.BudgetError, match=r"^probe window enumerates 2048 clones, budget 100$"):
            measure_linear_constant(shift_map(2, 1), depth=9)

    def test_probe_gate_is_the_vertex_budget(self, monkeypatch):
        # the window from -1 to depth 17 holds 2 ** 19 clones
        with pytest.raises(dlgraph.BudgetError, match=r"^probe window enumerates 524288 clones, budget 500000$"):
            measure_linear_constant(shift_map(2, 1), depth=17)
        monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 2048)
        assert measure_linear_constant(shift_map(2, 1), depth=9).samples == 2048
        monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 2047)
        with pytest.raises(dlgraph.BudgetError, match=r"^probe window enumerates 2048 clones, budget 2047$"):
            measure_linear_constant(shift_map(2, 1), depth=9)

    def test_probe_window_covers_span(self):
        # the window runs from one index below the structural span (and
        # from -1 at the latest) up to depth: q**width clones
        assert measure_linear_constant(shift_map(2, 1), depth=2).samples == 2**4
        perm = BoundaryMap(3, (level_perm([(-3, (1, 0, 2))]),))
        assert measure_linear_constant(perm, depth=1).samples == 3**6

    def test_probe_window_empty_below_index_minus_one(self):
        # a map without structure probes from index -1, so depth -2 leaves nothing
        with pytest.raises(ValueError, match="probe window is empty"):
            measure_linear_constant(shift_map(2, 1), depth=-2)

    def test_empty_perm_has_no_span(self):
        # "perms": [] is a well-formed description of the identity
        m = map_from_description(2, [{"kind": "perm", "perms": []}])
        assert m.source_span() is None
        assert compose(m, shift_map(2, 1)).source_span() is None
        check = measure_linear_constant(m, depth=2)
        assert check.constant and check.ratio == 1 and check.samples == 2**4
        c = tree_vertex(2, [(0, 1)])
        assert m.vertex_image(c) == c


# ---------------------------------------------------------------------------
# interior maps and exact fibers

class TestInteriorMaps:
    def params(self):
        return graph_params(2, 2)

    def test_exponents_are_those_of_the_constants(self):
        # lambda and K are powers of q whose exponents add over a composition,
        # and over the coordinates lambda multiplies while K takes the max
        rng = random.Random(7)
        for _ in range(60):
            q, d = rng.choice([2, 3]), rng.choice([2, 3])
            pairs = [(random_boundary_map(rng, q), random_boundary_map(rng, q)) for _ in range(d)]

            def lam(m):
                return Fraction(q) ** m.lam_exponent()

            def bilip(m):
                return q ** m.bilip_exponent()

            for f, g in pairs:
                assert lam(compose(f, g)) == lam(f) * lam(g)
                assert bilip(compose(f, g)) == bilip(f) * bilip(g)
            maps = [compose(f, g) for f, g in pairs]
            im = interior_map(graph_params(d, q), maps)
            assert lam(im) == math.prod(lam(m) for m in maps)
            assert bilip(im) == max(bilip(m) for m in maps)

    def lift_lower(self):
        # contract the first coordinate, fix the second
        return interior_map(self.params(), (shift_map(2, 1), identity_map(2)))

    def box(self, h=4):
        p = self.params()
        return p, canonical_box(p, height_cube([(0, h)]))

    def test_identity_psi_fixes_vertices(self):
        p, box = self.box()
        im = interior_map(p, (identity_map(2), identity_map(2)))
        for x in box_members(p, box):
            assert psi_apply(im, x) == x
            assert preimage_count(im, x) == 1

    def test_psi_apply_refuses_a_vertex_from_another_graph(self):
        # a vertex of DL_2(3) or DL_2^2(2) once came back as a DL_2(2) vertex
        p, _ = self.box()
        im = interior_map(p, (identity_map(2), identity_map(2)))
        for other in (graph_params(2, 3), graph_params(2, 2, 2)):
            with pytest.raises(ValueError, match="^vertex and map live in different graphs$"):
                psi_apply(im, dlgraph.base_vertex(other))
        assert psi_apply(im, dlgraph.base_vertex(p)) == dlgraph.base_vertex(p)

    def test_preimage_count_refuses_a_vertex_from_another_graph(self):
        # a vertex of DL_2(3) or DL_2^2(2) once got a count of 2 from a DL_2(2) map
        p, _ = self.box()
        im = interior_map(p, (shift_map(2, 1), identity_map(2)))
        for other in (graph_params(2, 3), graph_params(2, 2, 2)):
            with pytest.raises(ValueError, match="^vertex and map live in different graphs$"):
                preimage_count(im, dlgraph.base_vertex(other))
        assert preimage_count(im, dlgraph.base_vertex(p)) == 2

    def test_heights_preserved(self):
        p, box = self.box()
        im = self.lift_lower()
        for x in box_members(p, box):
            assert rho(psi_apply(im, x)) == rho(x)

    def test_contraction_fibers_constant_q(self):
        p, box = self.box()
        im = self.lift_lower()
        counts = [preimage_count(im, x) for x in box_members(p, box)]
        assert set(counts) == {2}
        assert sum(counts) == 160

    def test_preimage_vertices_match_counts_and_map_back(self):
        p, box = self.box()
        im = self.lift_lower()
        for x in list(box_members(p, box))[:24]:
            fiber = preimage_vertices(im, x)
            assert len(fiber) == preimage_count(im, x)
            assert len(set(fiber)) == len(fiber)
            for y in fiber:
                assert psi_apply(im, y) == x

    def test_preimage_vertices_in_coordinate_order(self):
        p, box = self.box()
        im = self.lift_lower()
        for x in list(box_members(p, box))[:24]:
            coords = [y.coords for y in preimage_vertices(im, x)]
            assert len(coords) > 1
            assert coords == sorted(coords)

    def test_forward_sweep_finds_no_extra_preimages(self):
        # over a padded box, forward evaluation must agree with the
        # exact fiber counts computed through clone preimages
        p = self.params()
        inner = canonical_box(p, height_cube([(1, 3)]))
        outer = canonical_box(p, height_cube([(0, 4)]))
        im = self.lift_lower()
        hits = Counter()
        for y in box_members(p, outer):
            hits[dl_key(psi_apply(im, y))] += 1
        for x in box_members(p, inner):
            # every preimage of an inner vertex lies inside the outer box:
            # the transducers move digit indices by at most one
            assert hits[dl_key(x)] == preimage_count(im, x)

    def test_opposite_shifts_give_zero_or_q_fibers(self):
        p, box = self.box()
        im = interior_map(p, (shift_map(2, 1), shift_map(2, -1)))
        members = list(box_members(p, box))
        counts = [preimage_count(im, x) for x in members]
        assert set(counts) == {0, 2}
        by_height = {}
        for x, c in zip(members, counts):
            by_height.setdefault(rho(x)[0], []).append(c)
        # at heights where the second coordinate's leading digit is free,
        # fibers average exactly one; the bottom row is pinned to the
        # all-zero root, whose leading digit vanishes, so it averages q
        for h, vals in by_height.items():
            avg = Fraction(sum(vals), len(vals))
            assert avg == (2 if h == 4 else 1)

    def test_d3_double_contraction_fibers(self):
        p = graph_params(3, 2)
        im = interior_map(p, (shift_map(2, 1), shift_map(2, 1), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 4), (0, 4)]))
        counts = [preimage_count(im, x) for x in box_members(p, box)]
        assert len(counts) == 6400
        assert set(counts) == {4}

    @pytest.mark.parametrize("d,q", list(itertools.product((2, 3), (2, 3))))
    def test_each_member_lies_in_the_fiber_over_its_image(self, d, q):
        rng = random.Random(60 + 10 * d + q)
        p = graph_params(d, q)
        for h in (1, 2):
            box = canonical_box(p, height_cube([(0, h)] * (d - 1)))
            for _ in range(3):
                maps = [
                    BoundaryMap(q, tuple(random_primitive(rng, q) for _ in range(rng.randint(1, 3))))
                    for _ in range(d)
                ]
                im = interior_map(p, maps)
                for x in box_members(p, box):
                    assert x in preimage_vertices(im, psi_apply(im, x))

    def test_eval_table_preserves_order(self):
        p, box = self.box(2)
        im = self.lift_lower()
        members = sorted(box_members(p, box), key=dl_key)
        table = psi_eval(im, members)
        assert list(table) == members

    @pytest.mark.parametrize("d,q", list(itertools.product((2, 3), (2, 3))))
    def test_eval_table_maps_each_tree_vertex_once(self, monkeypatch, d, q):
        # members share tree coordinates, and each map reads each distinct
        # one once, into the same values psi_apply gives vertex by vertex
        rng = random.Random(70 + 10 * d + q)
        p = graph_params(d, q)
        members = sorted(box_members(p, canonical_box(p, height_cube([(0, 2)] * (d - 1)))), key=dl_key)
        maps = [BoundaryMap(q, tuple(random_primitive(rng, q) for _ in range(2))) for _ in range(d)]
        im = interior_map(p, maps)
        expected = [psi_apply(im, x) for x in members]
        real, calls = BoundaryMap.vertex_image, []

        def counting(m, c):
            calls.append(c)
            return real(m, c)

        monkeypatch.setattr(BoundaryMap, "vertex_image", counting)
        table = psi_eval(im, members)
        assert list(table) == members and list(table.values()) == expected
        assert len(calls) == sum(len({x.coords[i] for x in members}) for i in range(d))


# ---------------------------------------------------------------------------
# fiber-count audit

class TestFiberAudit:
    def test_contraction_audit_d2(self):
        p = graph_params(2, 2)
        im = interior_map(p, (shift_map(2, 1), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 4)]))
        audit = fiber_count_audit(im, box, r=1, bilip=2)
        assert audit.box_size == 80
        assert audit.boundary_size == 32
        assert audit.total_preimages == 160
        assert audit.lower_bound == 96
        assert audit.upper_bound == 288
        assert audit.bounds_ok
        assert audit.interior_constant and audit.interior_value == 2

    def test_contraction_audit_d3(self):
        p = graph_params(3, 2)
        im = interior_map(p, (shift_map(2, 1), shift_map(2, 1), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 4), (0, 4)]))
        audit = fiber_count_audit(im, box, r=1, bilip=2)
        assert audit.box_size == 6400
        assert audit.boundary_size == 4096
        assert audit.total_preimages == 25600
        assert audit.lower_bound == 9216
        assert audit.upper_bound == 58368
        assert audit.bounds_ok

    def test_box_budget_is_a_budget_error(self, monkeypatch):
        # each fiber of the side-4 d = 2 box has 2 ** 4 members
        p = graph_params(2, 2)
        im = interior_map(p, (shift_map(2, 1), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 4)]))
        monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 15)
        with pytest.raises(dlgraph.BudgetError, match=r"^fiber has 16 members, budget 15$"):
            fiber_count_audit(im, box)
        monkeypatch.setattr(dlgraph, "DEFAULT_VERTEX_BUDGET", 16)
        assert fiber_count_audit(im, box).box_size == 80

    def test_fiber_gate_comes_before_any_walk(self, monkeypatch):
        # at q = 708 a side-2 d = 2 fiber has 501,264 members, over the
        # vertex budget, though its box of 1,503,792 is not listed at all
        def refuse(*args, **kwargs):
            raise AssertionError("a descendant walk started")

        monkeypatch.setattr(qilab, "tree_descendants", refuse)
        monkeypatch.setattr(dlgraph, "tree_descendants", refuse)
        p = graph_params(2, 708)
        im = interior_map(p, (shift_map(708, 1), identity_map(708)))
        with pytest.raises(dlgraph.BudgetError, match=r"^fiber has 501264 members, budget 500000$"):
            fiber_count_audit(im, dlgraph.side_box(p, 2))

    def test_default_radius_covers_bilip(self):
        p = graph_params(2, 2)
        im = interior_map(p, (shift_map(2, 1), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 2)]))
        audit = fiber_count_audit(im, box)
        assert audit.r == 1 and audit.bilip == 2
        assert audit.bounds_ok

    @pytest.mark.parametrize(
        "q,bilip,least",
        # at 2**29 the float log_2 K rounds up past 29
        [(2, 1, 1), (2, 2, 1), (2, 3, 2), (2, 4, 2), (2, 8, 3), (3, 9, 2), (3, 10, 3), (2, 2**29, 29)],
    )
    def test_audit_radius_is_the_least_covering_bilip(self, q, bilip, least):
        assert audit_radius(q, bilip) == least

    def test_audit_radius_of_large_constants(self):
        # the float estimate of log_q K is corrected exactly, in a few powers
        for q, e in [(2, 4321), (3, 1000), (7, 50), (10, 100003)]:
            assert audit_radius(q, q**e - 1) == audit_radius(q, q**e) == e
            assert audit_radius(q, q**e + 1) == e + 1

    def test_bounds_hold_from_the_audit_radius_on(self):
        # the default radius, and the least --r that the CLI accepts
        rng = random.Random(3)
        for _ in range(30):
            d, q = rng.choice([2, 3]), rng.choice([2, 3])
            p = graph_params(d, q)
            im = interior_map(p, [random_boundary_map(rng, q) for _ in range(d)])
            box = dlgraph.side_box(p, 2)
            least = audit_radius(q, q ** im.bilip_exponent())
            assert fiber_count_audit(im, box).r == least
            for r in (least, least + 1):
                assert fiber_count_audit(im, box, r=r).bounds_ok


# ---------------------------------------------------------------------------
# chain scans

class TestChainScan:
    def scan_map(self):
        p = graph_params(2, 2)
        return interior_map(p, (shift_map(2, 1), identity_map(2)))

    def test_matching_target_vanishes_identically(self):
        records = uf_chain_scan(self.scan_map(), 2, [2, 4, 6], r=1)
        assert all(r.chain_sum == 0 for r in records)
        assert all(r.ratio_boundary == 0 for r in records)

    def test_mismatched_target_diverges_at_boundary_rate(self):
        records = uf_chain_scan(self.scan_map(), 3, [2, 4, 6], r=1)
        assert [abs(r.ratio_boundary) for r in records] == [
            Fraction(3, 2),
            Fraction(5, 2),
            Fraction(7, 2),
        ]
        assert all(abs(r.ratio_box) == 1 for r in records)
        growth = abs(records[2].ratio_boundary) / abs(records[0].ratio_boundary)
        assert growth >= 2

    def test_box_sizes_recorded(self):
        records = uf_chain_scan(self.scan_map(), 2, [2, 4], r=1)
        assert [(r.h, r.box_size, r.boundary_size) for r in records] == [
            (2, 12, 8),
            (4, 80, 32),
        ]

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            uf_chain_scan(self.scan_map(), 0, [2])

    @pytest.mark.parametrize("r", [0, -1])
    def test_rejects_an_empty_boundary(self, r):
        # the r = 0 boundary is empty, and the ratios divide by its size
        with pytest.raises(ValueError, match="r must be at least 1"):
            uf_chain_scan(self.scan_map(), 2, [2, 4], r=r)


# ---------------------------------------------------------------------------
# tile map onto the index-k lattice

class TestUmap:
    def tiling(self, d, q, k, spans=3):
        p = graph_params(d, q)
        side = spans * k
        region = height_cube([(0, side - 1)] * (d - 1))
        return p, make_tiling(p, region, k)

    def test_region_must_align(self):
        p = graph_params(2, 2)
        with pytest.raises(ValueError):
            make_tiling(p, height_cube([(0, 4)]), 2)
        with pytest.raises(ValueError):
            make_tiling(p, height_cube([(1, 6)]), 2)

    def test_tile_side_must_equal_k(self):
        p, tiling = self.tiling(2, 2, 2)
        with pytest.raises(ValueError, match="tile side must equal the index k"):
            qilab.umap_positions(tiling, 3)

    @pytest.mark.parametrize(
        "x",
        [
            # a first height of 7, above the cube [0, 3]
            dl_vertex(graph_params(2, 2), (TreeVertex(7, ()), TreeVertex(-7, ()))),
            # a vertex of DL_3(2)
            dl_vertex(graph_params(3, 2), (TreeVertex(1, ()), TreeVertex(0, ()), TreeVertex(-1, ()))),
            # a first coordinate off the box root at height 0
            dl_vertex(graph_params(2, 2), (TreeVertex(2, ((0, 1),)), TreeVertex(-2, ()))),
            # a last coordinate off the box root at height -3
            dl_vertex(graph_params(2, 2), (TreeVertex(2, ()), TreeVertex(-2, ((-3, 1),)))),
        ],
        ids=["height-outside-cube", "other-params", "first-off-root", "last-off-root"],
    )
    def test_umap_rejects_a_vertex_outside_the_ambient_box(self, x):
        # the tile map is defined on the ambient box members, and only there
        p = graph_params(2, 2)
        tiling = make_tiling(p, height_cube([(0, 3)]), 2)
        table = umap_eval(tiling, 2)
        assert set(table) == set(box_members(p, tiling.ambient))
        assert x not in table

    @pytest.mark.parametrize("k", [2, 3])
    def test_exactly_k_to_one_d2(self, k):
        p, tiling = self.tiling(2, 2, k)
        table = umap_eval(tiling, k)
        hits = Counter(dl_key(y) for y in table.values())
        assert set(hits.values()) == {k}
        expected = {
            dl_key(x)
            for x in box_members(p, tiling.ambient)
            if rho(x)[0] % k == 0
        }
        assert set(hits) == expected

    def test_exactly_k_to_one_d3(self):
        p, tiling = self.tiling(3, 2, 2, spans=2)
        table = umap_eval(tiling, 2)
        hits = Counter(dl_key(y) for y in table.values())
        assert set(hits.values()) == {2}

    def test_identity_on_sublattice(self):
        p, tiling = self.tiling(2, 2, 2)
        table = umap_eval(tiling, 2)
        for x, y in table.items():
            if rho(x)[0] % 2 == 0:
                assert dl_key(y) == dl_key(x)

    def test_images_live_in_index_k_lattice(self):
        p, tiling = self.tiling(2, 2, 3)
        for y in umap_eval(tiling, 3).values():
            assert y.params.k == 3
            assert rho(y)[0] % 3 == 0

    def test_displacement_regression_values(self):
        # frozen from the first audited runs; displacement is uniformly
        # bounded and must never grow under refactoring
        p2, t2 = self.tiling(2, 2, 2)
        assert umap_displacement(t2, 2) == 1
        p3, t3 = self.tiling(2, 2, 3)
        assert umap_displacement(t3, 3) == 3
        pd3, td3 = self.tiling(3, 2, 2, spans=2)
        assert umap_displacement(td3, 2) == 3


# ---------------------------------------------------------------------------
# the arithmetic tile map against an enumerative oracle


def enumerative_umap(tiling, k, x):
    """The tile map by listing descendants and finding lex positions with list.index."""
    params = tiling.params
    box = tile_box(tiling, x)
    v = rho(x)
    corner = box.cube.intervals[0][0]
    root_first = box.roots[0]
    root_last = box.roots[-1]
    offset = v[0] - corner
    src_first = list(tree_descendants(root_first, offset, params.q))
    depth_src_last = (-sum(v)) - root_last.level
    src_last = list(tree_descendants(root_last, depth_src_last, params.q))
    tgt_last = list(tree_descendants(root_last, depth_src_last + offset, params.q))
    pair_index = src_first.index(x.coords[0]) * len(src_last) + src_last.index(x.coords[-1])
    coords = (root_first,) + x.coords[1:-1] + (tgt_last[pair_index],)
    return dl_vertex(graph_params(params.d, params.q, k), coords)


@functools.cache
def enumerative_umap_table(d, q, k, side):
    """(tiling, members in key order, their enumerative_umap images), built once per case."""
    p = graph_params(d, q)
    tiling = make_tiling(p, height_cube([(0, side - 1)] * (d - 1)), k)
    members = tuple(sorted(box_members(p, tiling.ambient), key=dl_key))
    return tiling, members, tuple(enumerative_umap(tiling, k, x) for x in members)


UMAP_GRID = [
    (2, 2, 2, 8),
    (2, 3, 2, 6),
    (2, 2, 3, 9),
    (2, 3, 3, 6),
    (2, 2, 4, 8),
    (3, 2, 2, 4),
    (3, 3, 2, 4),
    (3, 2, 3, 3),
    (4, 2, 2, 2),
    (2, 5, 2, 4),
    (3, 3, 3, 3),
]


class TestUmapOracle:
    @pytest.mark.parametrize("d,q,k,side", UMAP_GRID)
    def test_matches_enumerative_umap(self, d, q, k, side):
        tiling, members, expected = enumerative_umap_table(d, q, k, side)
        table = umap_eval(tiling, k)
        assert list(table) == list(members)
        assert list(table.values()) == list(expected)

    @pytest.mark.parametrize("d,q,k,side", UMAP_GRID)
    def test_fiber_map_matches_per_vertex_and_enumerative(self, d, q, k, side):
        tiling, by_key, expected = enumerative_umap_table(d, q, k, side)
        listing, image, _ = qilab.umap_positions(tiling, k)
        members = dlgraph._listed_members(tiling.ambient, listing)
        # in key order, each image read as the member at its position
        assert members == tuple(x.coords for x in by_key)
        assert list(listing.keys) == [dl_key(dlgraph.DLVertex(tiling.params, c)) for c in members]
        assert [members[j] for j in image] == [y.coords for y in expected]

    @pytest.mark.parametrize("d,q,k,side", UMAP_GRID)
    def test_positions_and_signatures_match_the_oracles(self, monkeypatch, d, q, k, side):
        tiling, members, expected = enumerative_umap_table(d, q, k, side)
        position = {x.coords: i for i, x in enumerate(members)}
        by_oracle = [position[y.coords] for y in expected]
        meets, pair_sigs = [], []
        for x, j in zip(members, by_oracle):
            y = members[j]
            m = dlgraph.meet_level(x.coords[-1], y.coords[-1])
            drop = x.coords[0].level - y.coords[0].level
            meets.append((drop, x.coords[-1].level - m, y.coords[-1].level - m))
            sig = dlgraph._pair_signature(x, y)
            assert sig == ((drop, 0), *[(0, 0)] * (d - 2), sig[-1])
            pair_sigs.append((drop, *sig[-1]))

        def refuse(*args, **kwargs):
            raise AssertionError("the box-wide tile map built a tree or graph vertex")

        # keys come from the pool table's key texts, and positions are
        # arithmetic, so no member or image is built as a vertex
        for module in (qilab, dlgraph):
            for name in ("TreeVertex", "DLVertex", "tree_ancestor", "tree_descendants"):
                monkeypatch.setattr(module, name, refuse)
        _, image, signatures = qilab.umap_positions(tiling, k)
        assert image == by_oracle
        assert signatures == meets == pair_sigs

    def test_image_fiber_of_other_depths_is_an_error(self, monkeypatch):
        # an image point inside the cube whose pools are not the box's there
        p = graph_params(2, 2)
        tiling = make_tiling(p, height_cube([(0, 3)]), 2)
        first = min(box_members(p, tiling.ambient), key=lambda x: x.coords)
        monkeypatch.setattr(
            qilab, "_fiber_images", lambda q, k, point, depths: ((2,), [0, 0], [0], [(0, 0, 0)])
        )
        message = f"umap image of {dl_key(first)} lies outside the ambient box"
        with pytest.raises(ValueError, match=re.escape(message)):
            qilab.umap_positions(tiling, 2)

    @pytest.mark.parametrize("d,q,k,side", UMAP_GRID)
    def test_images_are_ambient_box_members(self, d, q, k, side):
        p = graph_params(d, q)
        tiling = make_tiling(p, height_cube([(0, side - 1)] * (d - 1)), k)
        coords = {x.coords for x in box_members(p, tiling.ambient)}
        assert all(y.coords in coords for y in umap_eval(tiling, k).values())

    def test_cli_csv_matches_oracle(self, tmp_path):
        for d, q, k, side in [(2, 3, 2, 4), (3, 2, 2, 2)]:
            p = graph_params(d, q)
            tiling = make_tiling(p, height_cube([(0, side - 1)] * (d - 1)), k)
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["key", "image_key", "displacement"])
            for x in sorted(box_members(p, tiling.ambient), key=dl_key):
                y = enumerative_umap(tiling, k, x)
                disp = vertex_distance(
                    x, dl_vertex(p, y.coords), dlgraph.DEFAULT_DISTANCE_CAP
                )
                writer.writerow([dl_key(x), dl_key(y), disp])
            out = tmp_path / f"umap{d}.csv"
            argv = ["qilab", "--mode", "umap", "--d", str(d), "--q", str(q), "--k", str(k),
                    "--h", str(side), "--out", str(out)]
            assert cli.main(argv) == 0
            assert out.read_text(encoding="utf-8") == buf.getvalue()

    @pytest.mark.parametrize("d,q,k,side", UMAP_GRID)
    def test_cli_displacement_is_the_graph_distance(self, capsys, d, q, k, side):
        p = graph_params(d, q)
        tiling = make_tiling(p, height_cube([(0, side - 1)] * (d - 1)), k)
        by_key = {dl_key(x): x for x in box_members(p, tiling.ambient)}
        argv = ["qilab", "--mode", "umap", "--d", str(d), "--q", str(q), "--k", str(k),
                "--h", str(side)]
        assert cli.main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["key", "image_key", "displacement"]
        assert len(rows) == len(by_key) + 1
        for key, image_key, disp in rows[1:]:
            # the image is a box member, read here as a vertex of the ordinary graph
            assert int(disp) == dlgraph.dl_distance(by_key[key], by_key[image_key]), key

    @pytest.mark.parametrize("d,q,k,side", UMAP_GRID)
    def test_cli_csv_matches_the_csv_module(self, capsys, monkeypatch, d, q, k, side):
        # the umap rows are written as text; the csv module, given the
        # oracle's keys, images and distances, writes the same bytes
        tiling, members, images = enumerative_umap_table(d, q, k, side)
        p = tiling.params
        rows = [
            (dl_key(x), dl_key(y), dlgraph.dl_distance(x, dl_vertex(p, y.coords)))
            for x, y in zip(members, images)
        ]
        # keys with two or more digits hold commas, which the csv module quotes;
        # from q = 3 on they hold digits 2 too
        assert any("," in key for key, _, _ in rows)
        assert q == 2 or any("=2" in key and "," in key for key, _, _ in rows)

        def refuse(*args, **kwargs):
            raise AssertionError("the umap mode built a graph vertex")

        for module in (dlgraph, qilab):
            monkeypatch.setattr(module, "DLVertex", refuse)
        argv = ["qilab", "--mode", "umap", "--d", str(d), "--q", str(q), "--k", str(k),
                "--h", str(side)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == umap_csv_by_writer(rows)

    def test_one_distance_call_per_signature(self, monkeypatch):
        d, q, k, side = 2, 2, 3, 9
        p = graph_params(d, q)
        _, members, images = enumerative_umap_table(d, q, k, side)
        pairs = [(x, dl_vertex(p, y.coords)) for x, y in zip(members, images)]

        def triple(u, v):
            # a tile-map pair's signature is ((drop, 0), (0, 0), ..., (c, e))
            sig = dlgraph._pair_signature(u, v)
            assert sig[0][1] == 0 and set(sig[1:-1]) <= {(0, 0)}
            return (sig[0][0], *sig[-1])

        expected = sorted({triple(u, v) for u, v in pairs})
        # the signature state of each triple, as dl_distance builds it from a pair
        states = {triple(u, v): dlgraph._canonical_state(1, dlgraph._pair_signature(u, v)) for u, v in pairs}
        real, calls = dlgraph._distance, []

        def counting(k, state):
            calls.append(state)
            return real(k, state)

        # every module-level reference to the distance and its front, so a
        # caller that imported either name is counted too
        for module in (dlgraph, qilab, cli):
            monkeypatch.setattr(module, "_distance", counting, raising=False)
            monkeypatch.setattr(module, "dl_distance", lambda u, v: counting(1, states[triple(u, v)]), raising=False)
        argv = ["qilab", "--mode", "umap", "--d", str(d), "--q", str(q), "--k", str(k),
                "--h", str(side)]
        assert cli.main(argv) == 0
        assert len(pairs) == 2304 and len(expected) == 4
        # one distance asked per distinct triple, each of its own state
        assert sorted(calls) == sorted(states[t] for t in expected)

    def test_image_outside_the_box_is_an_error(self, monkeypatch, capsys):
        p = graph_params(2, 2)
        tiling = make_tiling(p, height_cube([(0, 3)]), 2)
        first = sorted(box_members(p, tiling.ambient), key=lambda x: x.coords)[0]

        def bad_fiber(q, k, point, depths):
            # the first fiber's image point (-1,) lies below the cube
            return (-1,), depths, [], []

        monkeypatch.setattr(qilab, "_fiber_images", bad_fiber)
        argv = ["qilab", "--mode", "umap", "--d", "2", "--q", "2", "--k", "2", "--h", "4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: umap image of {dl_key(first)} lies outside the ambient box\n"
        )

    @pytest.mark.parametrize("reader", [umap_eval, umap_displacement])
    def test_library_readers_reject_an_image_outside_the_box(self, monkeypatch, reader):
        # they read the image positions the CLI reads, with the same check
        p = graph_params(2, 2)
        tiling = make_tiling(p, height_cube([(0, 3)]), 2)
        first = min(box_members(p, tiling.ambient), key=lambda x: x.coords)
        monkeypatch.setattr(qilab, "_fiber_images", lambda q, k, point, depths: ((-1,), depths, [], []))
        message = f"umap image of {dl_key(first)} lies outside the ambient box"
        with pytest.raises(ValueError, match=re.escape(message)):
            reader(tiling, 2)

    def test_umap_eval_checks_budget_first(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("members were enumerated")

        monkeypatch.setattr(dlgraph, "_signature_pools", refuse)
        p = graph_params(2, 2)
        tiling = make_tiling(p, height_cube([(0, 23)]), 2)
        with pytest.raises(dlgraph.BudgetError, match=r"box has 201326592 members, budget 500000"):
            umap_eval(tiling, 2)


# ---------------------------------------------------------------------------
# distortion reports

class TestDistortion:
    def test_identity_reports_no_distortion(self):
        p = graph_params(2, 2)
        im = interior_map(p, (identity_map(2), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 4)]))
        table = psi_eval(im, sorted(box_members(p, box), key=dl_key))
        report = distortion(table, n_pairs=40, seed=3)
        assert report.k_est == 1
        assert report.c_est == 0
        assert report.max_displacement == 0

    def test_seeded_runs_reproduce(self):
        p = graph_params(2, 2)
        im = interior_map(p, (shift_map(2, 1), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 3)]))
        table = psi_eval(im, sorted(box_members(p, box), key=dl_key))
        a = distortion(table, n_pairs=25, seed=9)
        b = distortion(table, n_pairs=25, seed=9)
        assert a == b
        assert a.k_est >= 1

    def test_umap_table_distorts_boundedly(self):
        p = graph_params(2, 2)
        tiling = make_tiling(p, height_cube([(0, 5)]), 2)
        table = umap_eval(tiling, 2)
        report = distortion(table, n_pairs=40, seed=11)
        assert report.k_est == Fraction(5, 2)
        assert report.c_est == 0
        # domain and image live in different lattices, so no displacement
        assert report.max_displacement is None

    def test_opposite_shifts_distortion_reported(self):
        p = graph_params(2, 2)
        im = interior_map(p, (shift_map(2, 1), shift_map(2, -1)))
        box = canonical_box(p, height_cube([(0, 4)]))
        table = psi_eval(im, sorted(box_members(p, box), key=dl_key))
        report = distortion(table, n_pairs=40, seed=0)
        assert report.k_est == 3
        assert report.c_est == 0
        assert report.max_displacement == 10

    def test_running_maxima_match_the_listed_sample(self):
        # K and C from running maxima are those from every sampled ratio and
        # degenerate pair kept in a list; some samples have C > 0
        p = graph_params(2, 2)
        box = canonical_box(p, height_cube([(0, 2)]))
        members = sorted(box_members(p, box), key=dl_key)
        positive_c = 0
        for maps in [
            (shift_map(2, 1), identity_map(2)),
            (shift_map(2, 2), identity_map(2)),
            (shift_map(2, 1), shift_map(2, -1)),
            (identity_map(2), identity_map(2)),
        ]:
            table = psi_eval(interior_map(p, maps), members)
            for seed in range(4):
                report = distortion(table, n_pairs=30, seed=seed)
                assert (report.k_est, report.c_est) == distortion_by_lists(table, 30, seed)
                assert type(report.k_est) is type(report.c_est) is Fraction
                positive_c += report.c_est > 0
        assert positive_c

    def test_needs_two_entries(self):
        p = graph_params(2, 2)
        x = dl_vertex(p, (tree_vertex(0), tree_vertex(0)))
        with pytest.raises(ValueError):
            distortion({x: x})

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_needs_a_sample_pair(self, n_pairs):
        p = graph_params(2, 2)
        x, y = (dl_vertex(p, (tree_vertex(h), tree_vertex(-h))) for h in (0, 1))
        with pytest.raises(ValueError, match=f"need at least one sample pair, got {n_pairs}"):
            distortion({x: x, y: y}, n_pairs=n_pairs)


# ---------------------------------------------------------------------------
# closed-form chain and audit totals against an enumerative oracle


def enumerative_audit(imap, box, r, bilip):
    """The audit by member enumeration: one preimage_count per box member."""
    params = imap.params
    members = list(box_members(params, box))
    counts = [preimage_count(imap, x) for x in members]
    # a member's boundary membership depends on its tracked heights only
    boundary = set(cube_boundary(params, box.cube, r))
    interior = [c for x, c in zip(members, counts) if rho(x) not in boundary]
    n, total = len(members), sum(counts)
    bsize = n - len(interior)
    lam = Fraction(params.q) ** imap.lam_exponent()
    lower = (Fraction(n) - bsize) / lam
    upper = Fraction(n) / lam + bilip ** params.d * bsize
    distinct = set(interior)
    return FiberAudit(
        h=cube_side(box.cube),
        box_size=n,
        boundary_size=bsize,
        r=r,
        bilip=bilip,
        lam_product=lam,
        total_preimages=total,
        lower_bound=lower,
        upper_bound=upper,
        bounds_ok=lower <= total <= upper,
        interior_constant=len(distinct) <= 1,
        interior_value=next(iter(distinct)) if len(distinct) == 1 else None,
    )


def enumerative_chain(imap, k, h, r):
    params = imap.params
    box = dlgraph.side_box(params, h)
    members = list(box_members(params, box))
    chain = sum(preimage_count(imap, x) for x in members) - k * len(members)
    boundary = set(cube_boundary(params, box.cube, r))
    bsize = sum(rho(x) in boundary for x in members)
    return ChainRecord(
        h=h,
        box_size=len(members),
        boundary_size=bsize,
        chain_sum=chain,
        ratio_boundary=Fraction(chain, bsize),
        ratio_box=Fraction(chain, len(members)),
    )


def oracle_primitive(rng, q, lo, hi):
    """A shift in [-2, 2], or a perm or prefix window inside levels [lo, hi]."""
    kind = rng.choice(["shift", "perm", "prefix"])
    if kind == "shift":
        return Shift(rng.randint(-2, 2))
    if kind == "perm":
        perms = []
        for lvl in sorted(rng.sample(range(lo, hi + 1), 2)):
            table = list(range(q))
            rng.shuffle(table)
            perms.append((lvl, tuple(table)))
        return level_perm(perms)
    start = rng.randint(lo, hi - 1)
    end = start + rng.choice([0, 1])
    words = list(itertools.product(range(q), repeat=end - start + 1))
    images = list(words)
    rng.shuffle(images)
    return prefix_rewrite(start, end, zip(words, images))


ORACLE_SIDES = {  # (d, q, r, k) -> box sides in kZ where enumeration is cheap
    # an interior at r
    (2, 2, 1, 1): (2, 3, 4), (2, 2, 2, 1): (4, 5, 6), (2, 3, 1, 1): (2, 3, 4), (2, 3, 2, 1): (4, 5),
    (3, 2, 1, 1): (2, 3), (3, 2, 2, 1): (4,), (3, 3, 1, 1): (2,), (3, 3, 2, 1): (2,),
    (4, 2, 1, 1): (2,),
    (2, 2, 1, 2): (4, 6), (2, 2, 2, 2): (8, 10), (2, 3, 1, 2): (4, 6), (3, 2, 1, 2): (4,),
    (2, 2, 1, 3): (6, 9), (2, 3, 1, 3): (6,),
    # an empty interior at r: the inner cube has an empty axis
    (2, 2, 3, 2): (2, 4, 10), (3, 3, 1, 2): (2,), (3, 2, 2, 2): (2, 4),
    (3, 2, 1, 3): (3,), (4, 2, 1, 2): (2,), (4, 2, 2, 1): (2,),
}
# ids read d-q-r, with -k<k> past k = 1, and seeds add 10000 * (k - 1)
ORACLE_PARAMS = [
    pytest.param(*key, id="-".join(map(str, key[:3])) + (f"-k{key[3]}" if key[3] > 1 else ""))
    for key in ORACLE_SIDES
]


def oracle_case(rng, d, q, r, k=1):
    """A random interior map and a box whose roots carry random digits."""
    h = rng.choice(ORACLE_SIDES[d, q, r, k])
    starts = [rng.randint(-1, 1) for _ in range(d - 1)]
    starts[0] *= k  # the first axis is aligned to kZ
    cube = height_cube([(a, a + h) for a in starts], k)
    p = graph_params(d, q, k)
    levels = starts + [-sum(a + h for a in starts)]
    roots = []
    for lvl in levels:
        digits = [(i, rng.randrange(q)) for i in (lvl - 1, lvl)]
        roots.append(tree_vertex(lvl, [(i, v) for i, v in digits if v], q))
    box = Box(cube=cube, roots=tuple(roots))
    # windows sit just around each root's level, inside the box's levels;
    # a window far above a clone splits it q**distance ways
    maps = [
        BoundaryMap(q, tuple(oracle_primitive(rng, q, lvl - 1, lvl + 2) for _ in range(rng.randint(1, 3))))
        for lvl in levels
    ]
    return interior_map(p, maps), box


class TestClosedFormOracle:
    @pytest.mark.parametrize("d,q,r,k", ORACLE_PARAMS)
    def test_audit_matches_enumeration(self, d, q, r, k):
        rng = random.Random(100 * d + 10 * q + r + 10000 * (k - 1))
        for _ in range(6):
            imap, box = oracle_case(rng, d, q, r, k)
            bilip = q ** imap.bilip_exponent()
            assert fiber_count_audit(imap, box, r=r, bilip=bilip) == enumerative_audit(
                imap, box, r, bilip
            )

    @pytest.mark.parametrize("d,q,r,k", ORACLE_PARAMS)
    def test_chain_matches_enumeration(self, d, q, r, k):
        rng = random.Random(1000 + 100 * d + 10 * q + r + 10000 * (k - 1))
        for _ in range(4):
            imap, box = oracle_case(rng, d, q, r, k)
            h = cube_side(box.cube)
            target = rng.randint(1, 3)
            assert uf_chain_scan(imap, target, [h], r=r) == (enumerative_chain(imap, target, h, r),)

    def test_negative_shift_interior_values_vary(self):
        p = graph_params(2, 2)
        im = interior_map(p, (shift_map(2, -1), identity_map(2)))
        box = canonical_box(p, height_cube([(0, 4)]))
        audit = fiber_count_audit(im, box, r=1)
        assert audit == enumerative_audit(im, box, 1, p.q ** im.bilip_exponent())
        assert audit.interior_constant is False and audit.interior_value is None

    def test_window_inside_box_levels_varies_interior(self):
        # Shift(-1) makes a vertex's fiber depend on its top digit, and the
        # reversal window [1, 2] lies inside the first coordinate's levels
        p = graph_params(2, 3)
        rw = prefix_rewrite(1, 2, (
            (w, w[::-1]) for w in itertools.product(range(3), repeat=2)
        ))
        im = interior_map(p, (BoundaryMap(3, (Shift(-1), rw)), identity_map(3)))
        box = canonical_box(p, height_cube([(0, 4)]))
        audit = fiber_count_audit(im, box, r=1)
        assert audit == enumerative_audit(im, box, 1, p.q ** im.bilip_exponent())
        assert audit.interior_constant is False

    def test_default_radius_matches_enumeration(self):
        p = graph_params(2, 2)
        im = interior_map(p, (compose(shift_map(2, 1), shift_map(2, 1)), shift_map(2, -1)))
        box = canonical_box(p, height_cube([(0, 4)]))
        audit = fiber_count_audit(im, box)
        assert audit == enumerative_audit(im, box, audit.r, audit.bilip)


class TestClosedFormScale:
    """Sizes no enumeration could reach; enumerating at all fails at once."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("members were enumerated")

        monkeypatch.setattr(dlgraph, "tree_descendants", refuse)
        monkeypatch.setattr(qilab, "tree_descendants", refuse)
        monkeypatch.setattr(qilab, "preimage_count", refuse)

    def test_chain_scan_at_h40(self, no_enumeration):
        p = graph_params(2, 2)
        im = interior_map(p, (shift_map(2, 1), identity_map(2)))
        (rec,) = uf_chain_scan(im, 3, [40])
        assert rec.box_size == 41 * 2 ** 40
        assert rec.ratio_box == -1

    def test_d4_chain_scans_list_no_cube_point(self, no_enumeration, monkeypatch):
        # chain totals are a convolution over the cube axes; the values come
        # from a point-by-point sum, which took 3.4 s per scan
        def refuse(*args, **kwargs):
            raise AssertionError("a cube was listed")

        monkeypatch.setattr(dlgraph, "cube_points", refuse)
        monkeypatch.setattr(qilab, "cube_points", refuse, raising=False)
        p = graph_params(4, 2)
        alpha, inv, fix = shift_map(2, 1), shift_map(2, -1), identity_map(2)
        recs = uf_chain_scan(interior_map(p, (alpha, fix, fix, fix)), 3, [20, 40, 60])
        assert [r.ratio_boundary for r in recs] == [
            Fraction(-9261, 2402), Fraction(-68921, 9602), Fraction(-226981, 21602)
        ]
        assert [r.ratio_box for r in recs] == [-1, -1, -1]
        recs = uf_chain_scan(interior_map(p, (alpha, inv, alpha, fix)), 2, [20, 40, 60])
        assert [r.ratio_boundary for r in recs] == [
            Fraction(441, 1201), Fraction(1681, 4801), Fraction(3721, 10801)
        ]

    @pytest.mark.parametrize("d,q,h", [(2, 2, 40), (3, 2, 20)])
    def test_box_size_closed_form(self, no_enumeration, d, q, h):
        p = graph_params(d, q)
        box = canonical_box(p, height_cube([(0, h)] * (d - 1)))
        assert box_size(p, box) == (h + 1) ** (d - 1) * q ** ((d - 1) * h)


class TestAlphabetValidation:
    def test_short_perm_table_rejected(self):
        with pytest.raises(ValueError):
            BoundaryMap(3, (level_perm([(0, (1, 0))]),))

    def test_binary_prefix_table_rejected_at_q3(self):
        desc = [{"kind": "prefix", "lo": 0, "hi": 0, "table": [[[0], [1]], [[1], [0]]]}]
        with pytest.raises(ValueError):
            map_from_description(3, desc)

    def test_partial_alphabet_prefix_rejected(self):
        # a bijection of the words over {0, 2} is not over any Z/q
        with pytest.raises(ValueError):
            prefix_rewrite(0, 0, [((0,), (2,)), ((2,), (0,))])

    def test_matching_alphabets_accepted(self):
        words = list(itertools.product(range(3), repeat=2))
        rw = prefix_rewrite(0, 1, zip(words, words[::-1]))
        m = BoundaryMap(3, (level_perm([(0, (2, 0, 1))]), rw, Shift(1)))
        c = tree_vertex(1, [(0, 1), (1, 2)])
        assert compose(m, m.inverse()).vertex_image(c) == c


MALFORMED_DESCRIPTIONS = [
    ([{"kind": "perm"}], "'perms'"),
    ([{"kind": "shift"}], "'m'"),
    ([{"kind": "prefix", "lo": 0, "hi": 0}], "'table'"),
    ([{"kind": "perm", "perms": [{"index": 0}]}], "'table'"),
    ([1], "primitive 0 must be an object"),
    (1, "list of primitives"),
    ([{"m": 1}], "'kind'"),
    ([{"kind": "shift", "m": 1.5}], "'m' must be an integer"),
    ([{"kind": "shift", "m": True}], "'m' must be an integer"),
    ([{"kind": "perm", "perms": [{"index": 0, "table": [1, "a"]}]}], "'table' must be a list of integers"),
    ([{"kind": "prefix", "lo": 0, "hi": 0, "table": [[[0], [1]], [[1]]]}], "'table' must be a list of"),
    ([{"kind": "prefix", "lo": "0", "hi": 0, "table": []}], "'lo' must be an integer"),
]


class TestMalformedDescription:
    """A malformed map description is a ValueError naming the field."""

    @pytest.mark.parametrize("desc,field", MALFORMED_DESCRIPTIONS)
    def test_rejected_with_field_named(self, desc, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            map_from_description(2, desc)

    def test_well_formed_description_accepted(self):
        desc = [
            {"kind": "shift", "m": 1},
            {"kind": "perm", "perms": [{"index": 0, "table": [1, 0]}]},
            {"kind": "prefix", "lo": 0, "hi": 0, "table": [[[0], [1]], [[1], [0]]]},
        ]
        swap = ((0,), (1,)), ((1,), (0,))
        assert map_from_description(2, desc) == BoundaryMap(
            2, (Shift(1), LevelPerm(((0, (1, 0)),)), PrefixRewrite(0, 0, swap))
        )
