"""Tests for the dllab command-line interface."""

import argparse
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dllab import cli, dlgraph, group, qilab
from dllab.algebra import ring_params

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


def run_cli(args):
    return cli.main(list(args))


@pytest.fixture
def no_work(monkeypatch):
    """Make every suite and mode fail loudly if it starts computing."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for module, name in [
        (cli, "_check_counting"),
        (cli, "_check_folner"),
        (cli, "_check_correspondence"),
        (cli, "_check_index"),
        (qilab, "uf_chain_scan"),
        (qilab, "fiber_count_audit"),
        (qilab, "make_tiling"),
        (dlgraph, "_box_listing"),
        (qilab, "_box_listing"),
        (cli, "ball"),
        (cli, "box_graph"),
    ]:
        monkeypatch.setattr(module, name, refuse)


class TestGraphCommand:
    def test_ball_dot_golden(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2", "--radius", "1"]) == 0
        assert capsys.readouterr().out == EXPECTED_DOT

    def test_ball_dot_deterministic(self, capsys):
        run_cli(["graph", "--d", "2", "--q", "3", "--radius", "2"])
        first = capsys.readouterr().out
        run_cli(["graph", "--d", "2", "--q", "3", "--radius", "2"])
        assert capsys.readouterr().out == first

    def test_box_json_carries_cube(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2", "--h", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cube"] == {"intervals": [[0, 2]], "k": 1}
        assert len(data["vertices"]) == 12
        assert "center" not in data

    def test_ball_json_carries_center(self, capsys):
        run_cli(["graph", "--d", "2", "--q", "2", "--radius", "1", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["center"] == "0:|0:"
        assert data["radius"] == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "ball.dot"
        assert run_cli(["graph", "--d", "2", "--q", "2", "--radius", "1", "--out", str(target)]) == 0
        assert target.read_text() == EXPECTED_DOT
        assert capsys.readouterr().out == ""

    def test_index_graph_box(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2", "--k", "2", "--h", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["params"]["k"] == 2
        heights = {tuple(v["heights"]) for v in data["vertices"]}
        assert all(h[0] % 2 == 0 for h in heights)

    def test_needs_exactly_one_region_flag(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2"]) == 2
        assert run_cli(["graph", "--d", "2", "--q", "2", "--radius", "1", "--h", "2"]) == 2

    def test_csv_format_rejected(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2", "--radius", "1", "--format", "csv"]) == 2


GRAPH_GRID = [(d, q, k) for d in (2, 3) for q in (2, 3) for k in (1, 2, 3)]


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestChunkedGraphPayload:
    """`graph` writes dlgraph's export chunks as they come, to stdout or --out."""

    @pytest.mark.parametrize("d,q,k", GRAPH_GRID)
    def test_stdout_and_out_bytes_are_the_exports(self, capsys, monkeypatch, tmp_path, d, q, k):
        # one-vertex balls and boxes, the radius-1 ball and the side-k box
        # (up to 1000 members), each written with chunks of n - 1, n, n + 1,
        # m - 1, m and m + 1 items, n and m its vertex and edge counts: the
        # bytes are export_dot's and export_json's at the default chunk size
        p = dlgraph.graph_params(d, q, k)
        graphs = {("--radius", r): dlgraph.ball(dlgraph.base_vertex(p), r) for r in (0, 1)}
        for h in (0, k):
            box = dlgraph.side_box(p, h)
            if dlgraph.box_size(p, box) <= 1000:
                graphs["--h", h] = dlgraph.box_graph(p, box)
        assert len(graphs) >= 3
        for (flag, value), g in graphs.items():
            argv = ["graph", "--d", str(d), "--q", str(q), "--k", str(k), flag, str(value)]
            # compared by digest: pytest would diff two long JSON lines character by character
            want = {"dot": sha(dlgraph.export_dot(g)), "json": sha(dlgraph.export_json(g))}
            n, m = len(g.vertices), len(g.edges)
            for size in sorted({n - 1, n, n + 1, m - 1, m, m + 1} - {-1, 0}):
                monkeypatch.setattr(dlgraph, "_CHUNK_ITEMS", size)
                for fmt, digest in want.items():
                    assert run_cli([*argv, "--format", fmt]) == 0
                    out, err = capsys.readouterr()
                    assert (sha(out), err) == (digest, "")
                    target = tmp_path / f"graph.{fmt}"
                    assert run_cli([*argv, "--format", fmt, "--out", str(target)]) == 0
                    assert sha(target.read_bytes().decode()) == digest
                    assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_payload_is_written_chunk_by_chunk(self, monkeypatch, fmt):
        # the payload reaches stdout as a lazy run of chunks of at most 16
        # items, never as one string; the chunks join to the export
        class Sink:
            def __init__(self):
                self.chunks = []

            def writelines(self, chunks):
                assert not isinstance(chunks, (str, list, tuple))
                for chunk in chunks:
                    self.chunks.append(chunk)

        sink = Sink()
        monkeypatch.setattr(dlgraph, "_CHUNK_ITEMS", 16)
        monkeypatch.setattr(sys, "stdout", sink)
        assert run_cli(["graph", "--d", "2", "--q", "2", "--h", "4", "--format", fmt]) == 0
        monkeypatch.undo()
        p = dlgraph.graph_params(2, 2)
        g = dlgraph.box_graph(p, dlgraph.side_box(p, 4))
        want = dlgraph.export_json(g) if fmt == "json" else dlgraph.export_dot(g)
        assert sha("".join(sink.chunks)) == sha(want)
        # 80 vertices and 128 edges: 5 + 8 chunks of items, and the fixed parts
        assert (len(g.vertices), len(g.edges)) == (80, 128)
        assert len(sink.chunks) == (15 if fmt == "dot" else 16)
        assert max(map(len, sink.chunks)) < len("".join(sink.chunks)) / 4


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert run_cli(["verify", "--d", "2", "--q", "2", "--radius", "2"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("PASS ") for l in lines)
        assert any("counting.fibers" in l for l in lines)
        assert any("folner.identity" in l for l in lines)
        assert any("correspondence.isomorphism" in l for l in lines)

    def test_index_suite(self, capsys):
        assert run_cli(["verify", "--d", "2", "--q", "2", "--k", "2", "--assert", "index"]) == 0
        out = capsys.readouterr().out
        assert "PASS index.cosets" in out
        assert "PASS index.coverage" in out

    @pytest.mark.parametrize(
        "d,k,positives",
        # k = 4 exceeds the coverage depth 3, so the cosets need the larger ball
        [(3, 2, 143), (2, 4, 3)],
    )
    def test_index_suite_lines(self, capsys, d, k, positives):
        argv = ["verify", "--d", str(d), "--q", "2", "--k", str(k), "--assert", "index"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"PASS index.cosets: radius-{k} ball meets exactly k={k} cosets: "
            f"{list(range(k))}",
            f"PASS index.coverage: {positives} membership-positive elements of the "
            "radius-3 ball all reached by depth-3 subgroup words",
        ]

    def test_index_suite_d3q3k3(self, capsys):
        # the depth-3 subgroup ball over 222 generators would exceed the
        # vertex budget; coverage is decided from the depth-2 ball
        argv = ["verify", "--d", "3", "--q", "3", "--k", "3", "--assert", "index"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS index.cosets: radius-3 ball meets exactly k=3 cosets: [0, 1, 2]",
            "PASS index.coverage: 385 membership-positive elements of the "
            "radius-3 ball all reached by depth-3 subgroup words",
        ]

    def test_default_suite_d2q2k3(self, capsys):
        # the default box sides follow k: side 3, Folner sides 3, 6 and 9
        assert run_cli(["verify", "--d", "2", "--q", "2", "--k", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS counting.fibers: box fibers over [0,3]^1 all q^((d-1)h)=8: got [8]",
            "PASS counting.box_size: box size 16 = cube 2 x fiber 8",
            "PASS counting.degree: vertex degree 16 matches formula 16",
            "PASS folner.identity: box boundary ratio equals height-set ratio at r=1 "
            "(h=3: 1, h=6: 2/3, h=9: 1/2)",
            "PASS folner.decreasing: boundary ratio strictly decreases in h at r=1",
            "PASS correspondence.spheres: group spheres (1, 4, 10, 24) match graph "
            "spheres (1, 4, 10, 24)",
            "PASS correspondence.isomorphism: radius-3 ball maps isomorphically",
            "PASS index.cosets: radius-3 ball meets exactly k=3 cosets: [0, 1, 2]",
            "PASS index.coverage: 19 membership-positive elements of the radius-3 "
            "ball all reached by depth-3 subgroup words",
        ]

    def test_folner_compares_the_listed_sides(self, capsys):
        argv = ["verify", "--d", "2", "--q", "2", "--assert", "folner", "--h", "2,4"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS folner.identity: box boundary ratio equals height-set ratio at r=1 "
            "(h=2: 2/3, h=4: 2/5)",
            "PASS folner.decreasing: boundary ratio strictly decreases in h at r=1",
        ]

    def test_folner_lists_each_boundary_once(self, capsys, monkeypatch):
        # the box ratio is box_boundary_size's closed form, so cube_boundary
        # runs once per side, for the height-set ratio
        listed = []
        cube_boundary = dlgraph.cube_boundary

        def counted(params, cube, r):
            listed.append(cube.intervals)
            return cube_boundary(params, cube, r)

        monkeypatch.setattr(dlgraph, "cube_boundary", counted)
        argv = ["verify", "--d", "3", "--q", "2", "--k", "2", "--assert", "folner", "--r", "2", "--h", "8,12,16"]
        assert run_cli(argv) == 0
        assert listed == [((0, 8), (0, 8)), ((0, 12), (0, 12)), ((0, 16), (0, 16))]
        assert capsys.readouterr().out.splitlines() == [
            "PASS folner.identity: box boundary ratio equals height-set ratio at r=2 "
            "(h=8: 44/45, h=12: 76/91, h=16: 12/17)",
            "PASS folner.decreasing: boundary ratio strictly decreases in h at r=2",
        ]

    def test_counting_runs_once_per_listed_side(self, capsys):
        argv = ["verify", "--d", "2", "--q", "2", "--assert", "counting", "--h", "2,4"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS counting.fibers: box fibers over [0,2]^1 all q^((d-1)h)=4: got [4]",
            "PASS counting.box_size: box size 12 = cube 3 x fiber 4",
            "PASS counting.degree: vertex degree 4 matches formula 4",
            "PASS counting.fibers: box fibers over [0,4]^1 all q^((d-1)h)=16: got [16]",
            "PASS counting.box_size: box size 80 = cube 5 x fiber 16",
            "PASS counting.degree: vertex degree 4 matches formula 4",
        ]

    def test_index_suite_needs_k(self, capsys):
        assert run_cli(["verify", "--d", "2", "--q", "2", "--assert", "index"]) == 2

    def test_word_length_csv(self, capsys, tmp_path):
        target = tmp_path / "words.csv"
        assert run_cli([
            "verify", "--d", "2", "--q", "2", "--radius", "3",
            "--assert", "correspondence", "--out", str(target),
        ]) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "radius,sphere_size,ball_size"
        assert lines[1] == "0,1,1"
        assert lines[2] == "1,4,5"
        assert lines[3] == "2,10,15"
        assert lines[4] == "3,24,39"


class TestQilabChain:
    BASE = ["qilab", "--d", "2", "--q", "2", "--map", "alpha,id", "--h", "2,4,6"]

    def test_csv_shape(self, capsys):
        assert run_cli(self.BASE) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "h,box_size,boundary_size,chain_sum,ratio_boundary,ratio_box"
        assert lines[1] == "2,12,8,0,0.0,0.0"
        assert lines[2] == "4,80,32,0,0.0,0.0"
        assert lines[3] == "6,448,128,0,0.0,0.0"

    def test_bounded_assertion_passes_at_natural_target(self, capsys):
        assert run_cli(self.BASE + ["--assert", "bounded"]) == 0
        assert "PASS chain.bounded" in capsys.readouterr().err

    def test_divergence_assertion_at_mismatched_target(self, capsys):
        assert run_cli(self.BASE + ["--k", "3", "--assert", "divergence"]) == 0
        captured = capsys.readouterr()
        assert "PASS chain.divergence" in captured.err
        assert captured.out.splitlines()[1] == "2,12,8,-12,-1.5,-1.0"

    def test_bounded_assertion_fails_at_mismatched_target(self, capsys):
        assert run_cli(self.BASE + ["--k", "3", "--assert", "bounded"]) == 1
        assert "FAIL chain.bounded" in capsys.readouterr().err

    def test_divergence_assertion_fails_at_natural_target(self, capsys):
        assert run_cli(self.BASE + ["--assert", "divergence"]) == 1
        assert "FAIL chain.divergence" in capsys.readouterr().err

    def test_workers_byte_identical(self, capsys, tmp_path):
        one = tmp_path / "w1.csv"
        four = tmp_path / "w4.csv"
        assert run_cli(self.BASE + ["--k", "3", "--workers", "1", "--out", str(one)]) == 0
        assert run_cli(self.BASE + ["--k", "3", "--workers", "4", "--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()


class TestQilabOtherModes:
    def test_audit_payload(self, capsys):
        assert run_cli([
            "qilab", "--mode", "audit", "--d", "2", "--q", "2",
            "--map", "alpha,id", "--h", "4", "--r", "1", "--assert", "bounded",
        ]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["total_preimages"] == 160
        assert data["lower_bound"] == "96"
        assert data["upper_bound"] == "288"
        assert data["bounds_ok"] is True
        assert "PASS audit.bounded" in captured.err

    def test_audit_csv_table(self, capsys):
        assert run_cli([
            "qilab", "--mode", "audit", "--d", "2", "--q", "2",
            "--map", "alpha,id", "--h", "2,4", "--r", "1", "--format", "csv",
            "--assert", "bounded",
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("h,box_size,boundary_size,")
        assert lines[1] == "2,12,8,1,2,1/2,24,8,56,True,True,2"
        assert lines[2] == "4,80,32,1,2,1/2,160,96,288,True,True,2"
        assert "PASS audit.bounded" in captured.err

    def test_umap_ktoone(self, capsys):
        assert run_cli([
            "qilab", "--mode", "umap", "--d", "2", "--q", "2", "--k", "2",
            "--assert", "ktoone",
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "key,image_key,displacement"
        assert len(lines) == 1 + 192
        assert "PASS umap.ktoone" in captured.err

    def test_umap_needs_k(self, capsys):
        assert run_cli(["qilab", "--mode", "umap", "--d", "2", "--q", "2"]) == 2

    def test_umap_budget_checked_before_enumeration(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("members were enumerated")

        monkeypatch.setattr(dlgraph, "_pool_table", refuse)
        argv = ["qilab", "--mode", "umap", "--d", "2", "--q", "2", "--k", "2", "--h", "24"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: box has 201326592 members, budget 500000")

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_distortion_needs_a_sample_pair(self, capsys, pairs):
        argv = ["qilab", "--mode", "distortion", "--h", "2", "--pairs", pairs]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need at least one sample pair, got {pairs}\n"

    def test_distortion_seeded_reproducible(self, capsys):
        args = [
            "qilab", "--mode", "distortion", "--d", "2", "--q", "2",
            "--map", "alpha,id", "--h", "3", "--seed", "5", "--pairs", "20",
        ]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first
        data = json.loads(first)
        assert set(data) == {"pairs", "k_est", "c_est", "max_displacement"}

    def test_bad_map_name(self, capsys):
        assert run_cli([
            "qilab", "--d", "2", "--q", "2", "--map", "nonsense,id",
        ]) == 2

    def test_map_arity_checked(self, capsys):
        assert run_cli([
            "qilab", "--d", "3", "--q", "2", "--map", "alpha,id",
        ]) == 2

    def test_json_map_spec(self, capsys):
        spec = json.dumps([[{"kind": "shift", "m": 1}], []])
        assert run_cli([
            "qilab", "--d", "2", "--q", "2", "--map", spec, "--h", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "2,12,8,0,0.0,0.0"


def audit_bounds_broken(monkeypatch):
    audit = qilab.fiber_count_audit
    monkeypatch.setattr(
        qilab, "fiber_count_audit",
        lambda *a, **kw: audit(*a, **kw)._replace(bounds_ok=False),
    )


def umap_merges_two_images(monkeypatch):
    # the first member takes its fiber's last member's image, so one image
    # is hit k + 1 times and another k - 1 times
    images_of = qilab._fiber_images

    def merged(q, k, point, depths):
        image_point, image_depths, images, signatures = images_of(q, k, point, depths)
        if point == (0,):  # the first fiber
            images[0] = images[-1]
        return image_point, image_depths, images, signatures

    monkeypatch.setattr(qilab, "_fiber_images", merged)


def umap_moves_the_hit_set(monkeypatch):
    # the members over heights 0 and 1 map into the fiber over 1, not 0:
    # every count is still 0 or 2, but members at first height 0, in 2Z,
    # are hit 0 times, and those at height 1 twice
    images_of = qilab._fiber_images

    def moved(q, k, point, depths):
        image_point, image_depths, images, signatures = images_of(q, k, point, depths)
        if image_point == (0,):
            image_point, image_depths = (1,), [1, image_depths[1] - 1]
        return image_point, image_depths, images, signatures

    monkeypatch.setattr(qilab, "_fiber_images", moved)


CHAIN = ["qilab", "--d", "2", "--q", "2", "--map", "alpha,id", "--h", "2,4,6"]
AUDIT = ["qilab", "--mode", "audit", "--d", "2", "--q", "2", "--map", "alpha,id",
         "--h", "2,4", "--r", "1", "--assert", "bounded"]
UMAP = ["qilab", "--mode", "umap", "--d", "2", "--q", "2", "--k", "2", "--assert", "ktoone"]


@pytest.mark.parametrize(
    "argv,breaks,status,err",
    [
        (
            CHAIN + ["--assert", "bounded"], None, 0,
            "chain target k=2, h=[2, 4, 6], ratios ['0', '0', '0']\n"
            "PASS chain.bounded: |chain|/|boundary| <= 1 at every h\n",
        ),
        (
            CHAIN + ["--k", "3", "--assert", "bounded"], None, 1,
            "chain target k=3, h=[2, 4, 6], ratios ['-3/2', '-5/2', '-7/2']\n"
            "FAIL chain.bounded: |chain|/|boundary| exceeds 1\n",
        ),
        (
            CHAIN + ["--k", "3", "--assert", "divergence"], None, 0,
            "chain target k=3, h=[2, 4, 6], ratios ['-3/2', '-5/2', '-7/2']\n"
            "PASS chain.divergence: boundary-normalized sums grow (last >= 2x first)\n",
        ),
        (
            CHAIN + ["--assert", "divergence"], None, 1,
            "chain target k=2, h=[2, 4, 6], ratios ['0', '0', '0']\n"
            "FAIL chain.divergence: no boundary-rate growth detected\n",
        ),
        (
            AUDIT, None, 0,
            "audit h=2: 8 <= 24 <= 56\naudit h=4: 96 <= 160 <= 288\n"
            "PASS audit.bounded: total preimages within two-sided bounds\n",
        ),
        (
            AUDIT, audit_bounds_broken, 1,
            "audit h=2: 8 <= 24 <= 56\naudit h=4: 96 <= 160 <= 288\n"
            "FAIL audit.bounded: total preimages escape the bounds\n",
        ),
        (
            UMAP, None, 0,
            "umap: 192 vertices onto 96 images, multiplicities [2]\n"
            "PASS umap.ktoone: exactly 2-to-1 onto the index-2 sublattice\n",
        ),
        (
            UMAP, umap_merges_two_images, 1,
            "umap: 192 vertices onto 96 images, multiplicities [1, 2, 3]\n"
            "FAIL umap.ktoone: image multiplicities are not uniform\n",
        ),
        (
            UMAP, umap_moves_the_hit_set, 1,
            "umap: 192 vertices onto 96 images, multiplicities [2]\n"
            "FAIL umap.ktoone: image multiplicities are not uniform\n",
        ),
    ],
    ids=[
        "chain.bounded-pass", "chain.bounded-fail", "chain.divergence-pass",
        "chain.divergence-fail", "audit.bounded-pass", "audit.bounded-fail",
        "umap.ktoone-pass", "umap.ktoone-fail", "umap.ktoone-moved",
    ],
)
def test_qilab_verdict_lines(capsys, monkeypatch, argv, breaks, status, err):
    # every qilab assertion, passing and failing: its summaries and verdict
    # line byte for byte, and its exit status
    if breaks is not None:
        breaks(monkeypatch)
    assert run_cli(argv) == status
    assert capsys.readouterr().err == err


class TestPayloadBytes:
    """Exact payload bytes, line terminators and final newline included."""

    def test_audit_csv_bytes(self, capsys, tmp_path):
        argv = [
            "qilab", "--mode", "audit", "--d", "2", "--q", "2",
            "--map", "alpha,id", "--h", "2,4", "--r", "1", "--format", "csv",
        ]
        expected = (
            b"h,box_size,boundary_size,r,bilip,lam_product,total_preimages,"
            b"lower_bound,upper_bound,bounds_ok,interior_constant,interior_value\n"
            b"2,12,8,1,2,1/2,24,8,56,True,True,2\n"
            b"4,80,32,1,2,1/2,160,96,288,True,True,2\n"
        )
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.encode() == expected
        target = tmp_path / "audit.csv"
        assert run_cli(argv + ["--out", str(target)]) == 0
        assert target.read_bytes() == expected

    def test_verify_out_bytes(self, capsys, tmp_path):
        target = tmp_path / "words.csv"
        assert run_cli([
            "verify", "--d", "2", "--q", "2", "--radius", "3",
            "--assert", "correspondence", "--out", str(target),
        ]) == 0
        assert target.read_bytes() == (
            b"radius,sphere_size,ball_size\n0,1,1\n1,4,5\n2,10,15\n3,24,39\n"
        )
        # the check lines still go to stdout, and the payload only to --out
        assert capsys.readouterr().out == (
            "PASS correspondence.spheres: group spheres (1, 4, 10, 24) "
            "match graph spheres (1, 4, 10, 24)\n"
            "PASS correspondence.isomorphism: radius-3 ball maps isomorphically\n"
        )

    @pytest.mark.parametrize(
        "argv,expected",
        [
            # an empty perm list is the identity, and has no source span
            (["--h", "2", "--pairs", "3", "--map", '[[{"kind":"perm","perms":[]}],[]]'],
             b'{"c_est":"0","k_est":"1","max_displacement":0,"pairs":3}\n'),
            # a prefix window above every box height, then a negative shift
            (["--h", "3", "--pairs", "5", "--map",
              '[[{"kind":"prefix","lo":5,"hi":5,"table":[[[0],[1]],[[1],[0]]]},{"kind":"shift","m":-1}],[]]'],
             b'{"c_est":"0","k_est":"2","max_displacement":8,"pairs":5}\n'),
        ],
        ids=["empty-perm", "window-above-then-negative-shift"],
    )
    def test_distortion_json_bytes(self, capsys, argv, expected):
        assert run_cli(["qilab", "--mode", "distortion", "--d", "2", "--q", "2"] + argv) == 0
        assert capsys.readouterr().out.encode() == expected


# Counts over the vertex budget with more digits than str() prints, or
# whose power would take seconds to build, and cube gates that come before
# a power: each is refused at once, with a message that names the budget.
# 2**low is at most the count: 15001 * 2**15000 has 15,014 bits.
REFUSED_AT_ONCE = [
    (["graph", "--d", "2", "--q", "2", "--h", "15000"], "box has at least 2^15013 members"),
    (["graph", "--d", "2", "--q", "3", "--h", "30000000"], "box has at least 2^30000024 members"),
    (["qilab", "--mode", "audit", "--d", "2", "--q", "2", "--h", "15000"], "fiber has at least 2^15000 members"),
    (
        ["qilab", "--mode", "umap", "--d", "2", "--q", "2", "--k", "2", "--h", "15000"],
        "box has at least 2^15012 members",
    ),
    (["qilab", "--mode", "distortion", "--d", "2", "--q", "2", "--h", "15000"], "box has at least 2^15013 members"),
    (["graph", "--d", "2", "--q", "3", "--k", "100000", "--radius", "1"], "vertex has at least 2^100001 neighbours"),
    (["qilab", "--d", "2", "--q", "3", "--map", "alpha,id", "--h", "3000000"], "cube has 3000001 points"),
    (["verify", "--d", "2", "--q", "3", "--assert", "counting", "--h", "3000000"], "cube has 3000001 points"),
    (["verify", "--d", "2", "--q", "3", "--assert", "folner", "--h", "3000000,3000001"], "cube has 3000001 points"),
]


class TestOversizedBoxes:
    """A box's and a fiber's sizes are closed forms, so their budget checks list no cube point."""

    @pytest.mark.parametrize(
        "argv,error", REFUSED_AT_ONCE, ids=[" ".join(argv) for argv, _ in REFUSED_AT_ONCE]
    )
    def test_oversized_count_refused_at_once(self, capsys, argv, error):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}, budget 500000\n"

    def test_ratio_too_large_for_a_float_refused_before_any_row(self, capsys, monkeypatch, tmp_path):
        # the chain CSV writes each ratio as its float's repr: at shift:1023
        # the ratios are near the largest float and print as before; at
        # shift:1100 they are about 2**1100, so the side and the column are
        # named and no row, and no --out file, is written
        chain = ["qilab", "--d", "2", "--q", "2", "--k", "1", "--h", "2"]
        assert run_cli([*chain, "--map", "shift:1023,id"]) == 0
        out = capsys.readouterr().out
        assert sha(out) == (
            "6b0b9da868c05023cdd27d5ca0af09ac47f17441b39a7cc43f433111cdf7f244"
        )
        assert out.endswith(",1.348269851146737e+308,8.98846567431158e+307\n")

        def refuse(*args, **kwargs):
            raise AssertionError("a chain row was written")

        monkeypatch.setattr(cli, "_csv_payload", refuse)
        target = tmp_path / "chain.csv"
        for h, out_flag in (("2", []), ("1,2", ["--out", str(target)])):
            argv = [*chain[:-1], h, "--map", "shift:1100,id", *out_flag]
            assert run_cli(argv) == 2
            side = h.split(",")[0]
            assert capsys.readouterr() == (
                "", f"error: side {side}: ratio_boundary is too large to write as a float\n"
            )
        assert not target.exists()

    def test_printable_count_keeps_its_digits(self, capsys):
        # 5001 * 2**5000, 1,510 digits, is printed in full as before
        assert run_cli(["graph", "--d", "2", "--q", "2", "--h", "5000"]) == 2
        assert capsys.readouterr().err == f"error: box has {5001 * 2**5000} members, budget 500000\n"

    @pytest.fixture
    def digit_limit_640(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(old)

    def test_printable_size_bound_is_exact(self, digit_limit_640):
        # str() prints 10**640 - 1, 640 nines, and refuses 10**640
        assert len(str(dlgraph._printable_size(10**640 - 1, 5))) == 640
        with pytest.raises(ValueError, match="^side 5: box size has more than 640 digits"):
            dlgraph._printable_size(10**640, 5)
        sys.set_int_max_str_digits(0)  # no limit
        assert dlgraph._printable_size(10**5000, 5) == 10**5000

    @pytest.mark.parametrize(
        "command,last_err",
        [
            (["verify", "--d", "2", "--q", "3", "--assert", "counting"], ""),
            (["qilab", "--d", "2", "--q", "3", "--map", "alpha,id"], "chain target k=3, h=[1334], ratios ['0']\n"),
        ],
        ids=["counting", "chain"],
    )
    def test_box_size_too_long_to_print_refused_before_any_fiber(
        self, capsys, monkeypatch, digit_limit_640, command, last_err
    ):
        # the box over [0, h] at d = 2, q = 3 has (h + 1) * 3**h members:
        # 640 digits at h = 1334, 641 at h = 1335
        assert run_cli([*command, "--h", "1334"]) == 0
        captured = capsys.readouterr()
        assert str(1335 * 3**1334) in captured.out
        assert captured.err == last_err

        def refuse(*args, **kwargs):
            raise AssertionError("a fiber was counted")

        monkeypatch.setattr(qilab, "_fiber_total", refuse)
        monkeypatch.setattr(dlgraph, "box_fiber_size", refuse)
        assert run_cli([*command, "--h", "1335"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: side 1335: box size has more than 640 digits, the limit for printing an integer\n"
        )

    def test_chain_sum_too_long_to_print_refused_before_any_row(self, capsys, monkeypatch, digit_limit_640):
        # the box size at h = 1334 has 640 digits; at k = 3 the chain sum is 0,
        # but at k = 1000 it is -997 times the box size, 643 digits
        chain = ["qilab", "--d", "2", "--q", "3", "--map", "alpha,id", "--h", "1334"]
        assert run_cli(chain) == 0
        assert capsys.readouterr().err == "chain target k=3, h=[1334], ratios ['0']\n"

        def refuse(*args, **kwargs):
            raise AssertionError("a chain row was written")

        monkeypatch.setattr(cli, "_chain_csv", refuse)
        assert run_cli([*chain, "--k", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: side 1334: chain sum has more than 640 digits, the limit for printing an integer\n"
        )

    @pytest.mark.parametrize(
        "argv,work,error",
        [
            # k = 1/lambda = 2**20000, the default chain target
            (["qilab", "--d", "2", "--q", "2", "--map", "shift:20000,id", "--h", "2"],
             "uf_chain_scan", "chain target 1/lambda"),
            # K = 2**20000, the audit's bilip, printed in its payload and its --r message
            (["qilab", "--mode", "audit", "--d", "2", "--q", "2", "--map", "shift:20000,id", "--h", "2"],
             "fiber_count_audit", "the bilipschitz constant K"),
        ],
        ids=["chain", "audit"],
    )
    def test_map_constant_too_long_to_print_refused_before_any_box_work(
        self, capsys, monkeypatch, digit_limit_640, argv, work, error
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("box work started")

        monkeypatch.setattr(qilab, work, refuse)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error} has more than 640 digits, the limit for printing an integer\n"

    @pytest.mark.parametrize(
        "maps,field",
        [
            # K = 2**1100 prints; the upper bound, about K**2 * |boundary|, does not
            ("shift:1100,id", "upper_bound"),
            # K = 2**800 prints; lambda = 2**-2400 does not
            ("shift:800,shift:800,shift:800", "lam_product"),
        ],
        ids=["upper_bound", "lam_product"],
    )
    def test_audit_field_too_long_to_print_refused_before_any_walk(
        self, capsys, monkeypatch, digit_limit_640, maps, field
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a fiber was walked or counted")

        monkeypatch.setattr(qilab, "_fiber_total", refuse)
        monkeypatch.setattr(qilab, "tree_descendants", refuse)
        d = str(maps.count(",") + 1)
        assert run_cli(["qilab", "--mode", "audit", "--d", d, "--q", "2", "--map", maps, "--h", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: side 2: {field} has more than 640 digits, the limit for printing an integer\n"
        )

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["graph", "--d", "2", "--q", "2", "--h", "2500"], "box has at least 2^2511 members"),
            (["qilab", "--mode", "audit", "--d", "2", "--q", "2", "--h", "2500"], "fiber has at least 2^2500 members"),
            (["graph", "--d", "2", "--q", "2", "--k", "2200", "--radius", "1"], "vertex has at least 2^2201 neighbours"),
        ],
        ids=["box", "fiber", "degree"],
    )
    def test_budget_count_written_within_the_print_limit(self, capsys, digit_limit_640, argv, error):
        # each count has 663 to 756 digits, well under 14,000 bits but over
        # the lowered limit, so it is written as a power of two
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}, budget 500000\n"

    @pytest.mark.parametrize(
        "argv,error",
        [
            # (4 ** 10 cube points) x (2 ** 30 members per fiber) = 2 ** 50
            (["graph", "--d", "11", "--q", "2", "--h", "3"], "box has 1125899906842624 members"),
            # the audit walks up to one fiber's descendants, never the whole box
            (["qilab", "--mode", "audit", "--d", "11", "--q", "2", "--h", "3"], "fiber has 1073741824 members"),
        ],
        ids=["graph", "audit"],
    )
    def test_rejected_without_listing_the_cube(self, capsys, monkeypatch, argv, error):
        def refuse(*args, **kwargs):
            raise AssertionError("the cube was enumerated")

        monkeypatch.setattr(dlgraph, "cube_points", refuse)
        monkeypatch.setattr(qilab, "cube_points", refuse, raising=False)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}, budget 500000\n"

    def test_box_graph_over_the_edge_budget_rejected_before_any_member(self, capsys, monkeypatch):
        # 354,294 members, within the vertex budget, but up to
        # 216 * 354,294 / 2 edges
        def refuse(*args, **kwargs):
            raise AssertionError("box members were listed")

        monkeypatch.setattr(dlgraph, "_box_listing", refuse)
        assert run_cli(["graph", "--d", "5", "--q", "3", "--k", "2", "--h", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: box graph may hold 38263752 edges, budget 5000000\n"


class TestOversizedLists:
    """A vertex's degree and a cube's point count are closed forms, checked before any listing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--d", "2", "--q", "2", "--k", "40", "--radius", "1"],
            ["verify", "--d", "2", "--q", "2", "--k", "40", "--assert", "counting"],
        ],
        ids=["graph", "counting"],
    )
    def test_degree_over_the_vertex_budget(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a tree move was listed")

        monkeypatch.setattr(dlgraph, "tree_descendants", refuse)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # 2 * 2 ** 40 neighbours
        assert captured.err == "error: vertex has 2199023255552 neighbours, budget 500000\n"

    @pytest.mark.parametrize(
        "argv,points",
        [
            (["verify", "--d", "4", "--q", "2", "--assert", "counting", "--h", "100"], 1030301),
            (["verify", "--d", "4", "--q", "2", "--assert", "folner", "--h", "100,200"], 1030301),
            (["qilab", "--d", "3", "--q", "2", "--map", "alpha,id,id", "--h", "1500"], 2253001),
        ],
        ids=["counting", "folner", "chain"],
    )
    def test_cube_over_the_vertex_budget(self, capsys, monkeypatch, argv, points):
        def refuse(*args, **kwargs):
            raise AssertionError("the cube was listed")

        monkeypatch.setattr(dlgraph, "product", refuse)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cube has {points} points, budget 500000\n"


class TestEmptyLists:
    """An explicit empty --h or --map is an error, never the default."""

    @pytest.mark.parametrize(
        "argv,config,message",
        [
            (["verify", "--d", "2", "--q", "2", "--assert", "counting", "--h", ""], None, "--h list is empty"),
            (["verify", "--d", "2", "--q", "2", "--assert", "counting"], "h=\n", "--h list is empty"),
            (["verify", "--assert", "folner", "--h", ""], None, "--h list is empty"),
            (["qilab", "--map", "alpha,id", "--h", ""], None, "--h list is empty"),
            (["qilab", "--mode", "audit", "--h", ""], None, "--h list is empty"),
            (["qilab", "--mode", "umap", "--k", "2", "--h", ""], None, "--h list is empty"),
            (["qilab", "--mode", "distortion", "--h", ""], None, "--h list is empty"),
            (["qilab", "--d", "2", "--q", "2", "--map", "", "--h", "2"], None, "unknown coordinate map ''"),
        ],
        ids=["counting", "counting-config", "folner", "chain", "audit", "umap", "distortion", "map"],
    )
    def test_rejected_before_any_work(self, capsys, no_work, tmp_path, argv, config, message):
        if config is not None:
            cfg = tmp_path / "lab.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("# defaults\nd=2\nq=2\nmap=alpha,id\nh=2,4\nassert=bounded\n")
        assert run_cli(["qilab", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3
        assert "PASS chain.bounded" in captured.err

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("h=2,4\n")
        assert run_cli([
            "qilab", "--d", "2", "--q", "2", "--map", "alpha,id",
            "--config", str(cfg), "--h", "6",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("6,")

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        assert run_cli(["qilab", "--config", str(cfg)]) == 2

    def test_missing_config_rejected(self, capsys, tmp_path):
        assert run_cli(["qilab", "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize(
        "spelling",
        [["--conf", "{}"], ["--c", "{}"], ["--config={}"]],
        ids=["prefix-conf", "prefix-c", "equals"],
    )
    def test_every_argparse_spelling_reads_the_file(self, capsys, tmp_path, spelling):
        argv = ["graph", "--d", "2", "--q", "2", "--format", "json"]
        assert run_cli(argv + ["--radius", "1"]) == 0
        expected = capsys.readouterr().out
        cfg = tmp_path / "r1.cfg"
        cfg.write_text("radius=1\n")
        assert run_cli(argv + [token.format(cfg) for token in spelling]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--d", "2", "--q", "2", "--radius", "1"],
            ["qilab", "--h", "2"],
        ],
        ids=["graph", "qilab"],
    )
    def test_prefix_spelling_rejects_a_bad_file(self, capsys, no_work, tmp_path, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("colour=red\n")
        assert run_cli(argv + ["--conf", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:1: unknown config key 'colour'\n"

    def test_ill_typed_value_names_file_and_line(self, capsys, no_work, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("# d is an integer\nd=abc\n")
        assert run_cli(["graph", "--radius", "1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {cfg}:2: d: invalid literal for int() with base 10: 'abc'\n"
        )

    @pytest.mark.parametrize("spelling", [["--config", ""], ["--config="]], ids=["space", "equals"])
    def test_empty_config_path_rejected(self, capsys, no_work, spelling):
        assert run_cli(["qilab", "--h", "2"] + spelling) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dllab.cli", "graph", "--d", "2", "--q", "2", "--radius", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == EXPECTED_DOT

    @pytest.mark.parametrize(
        "args",
        [
            ["--radius", "3", "--format", "dot"],
            ["--k", "2", "--radius", "2", "--format", "json"],
            ["--h", "3", "--format", "json"],
        ],
    )
    def test_graph_bytes_independent_of_hash_seed(self, args):
        outputs = set()
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-m", "dllab.cli", "graph", "--d", "2", "--q", "2", *args],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dllab.cli", "qilab", "--mode", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_import_loads_no_dataclasses(self):
        # the records are NamedTuples or written-out classes, so start-up
        # neither imports dataclasses (and inspect) nor generates methods
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import dllab.cli, sys; print(dllab.cli.__file__, 'dataclasses' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{src / 'dllab' / 'cli.py'} False\n"


class TestAlphabetMismatch:
    """Tables over the wrong alphabet are usage errors, never answers."""

    def test_binary_perm_at_q3(self, capsys):
        spec = '[[{"kind":"perm","perms":[{"index":0,"table":[1,0]}]}],[]]'
        assert run_cli(["qilab", "--q", "3", "--map", spec, "--h", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_binary_prefix_at_q3(self, capsys):
        spec = '[[{"kind":"prefix","lo":0,"hi":0,"table":[[[0],[1]],[[1],[0]]]}],[]]'
        assert run_cli(["qilab", "--q", "3", "--map", spec, "--h", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestMalformedMap:
    """A malformed JSON map is a usage error naming the field, never a traceback."""

    @pytest.mark.parametrize(
        "spec,field",
        [
            ('[[{"kind":"perm"}],[]]', "'perms'"),
            ('[[{"kind":"shift"}],[]]', "'m'"),
            ('[[{"kind":"prefix","lo":0,"hi":0}],[]]', "'table'"),
            ('[[{"kind":"perm","perms":[{"index":0}]}],[]]', "'table'"),
            ("[[1],[]]", "must be an object"),
        ],
    )
    def test_exit_2_naming_the_field(self, capsys, spec, field):
        args = ["qilab", "--d", "2", "--q", "2", "--h", "2", "--map", spec]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert field in captured.err

    def test_unreadable_map_file(self, capsys, tmp_path):
        spec = "@" + str(tmp_path / "absent.json")
        assert run_cli(["qilab", "--d", "2", "--q", "2", "--h", "2", "--map", spec]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_out_path(self, capsys, tmp_path):
        out = str(tmp_path / "absent" / "ball.dot")
        assert run_cli(["graph", "--d", "2", "--q", "2", "--radius", "1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestNamedMaps:
    """A named coordinate map is the shift it names, and shift:0 the identity."""

    @pytest.mark.parametrize(
        "name,m",
        [("id", 0), ("alpha", 1), ("alpha-inv", -1), ("shift:0", 0), ("shift:3", 3), ("shift:-2", -2)],
    )
    def test_named_map_is_its_shift(self, name, m):
        imap = cli._interior_map_from_arg(dlgraph.graph_params(2, 3), f"{name}, id")
        first = qilab.identity_map(3) if m == 0 else qilab.shift_map(3, m)
        assert imap.maps == (first, qilab.identity_map(3))


class TestAuditRadius:
    """An audit --r below the least r >= 1 with q^r >= K is a usage error."""

    @pytest.mark.parametrize(
        "spec,r,least,bilip",
        [
            ("alpha,alpha-inv", 0, 1, 2),
            ("shift:-2,id", 0, 2, 4),
            ("shift:3,shift:-3", 0, 3, 8),
            ("shift:3,shift:-3", 2, 3, 8),
            ("alpha,id", -1, 1, 2),
        ],
    )
    def test_rejected_before_any_box_work(self, capsys, no_work, spec, r, least, bilip):
        argv = ["qilab", "--mode", "audit", "--d", "2", "--q", "2", "--map", spec,
                "--h", "4", "--r", str(r), "--assert", "bounded"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: audit mode needs --r >= {least}, the least r >= 1 with 2^r >= K = {bilip}, got {r}\n"
        )

    @pytest.mark.parametrize("spec,least", [("alpha,alpha-inv", 1), ("shift:-2,id", 2), ("shift:3,shift:-3", 3)])
    def test_least_radius_is_the_default(self, capsys, spec, least):
        argv = ["qilab", "--mode", "audit", "--d", "2", "--q", "2", "--map", spec, "--h", "4", "--assert", "bounded"]
        assert run_cli(argv) == 0
        default = capsys.readouterr()
        assert run_cli(argv + ["--r", str(least)]) == 0
        assert capsys.readouterr() == default
        assert json.loads(default.out)["r"] == least
        assert default.err.endswith("PASS audit.bounded: total preimages within two-sided bounds\n")


class TestCorrespondenceFailures:
    def test_failure_line_reports_total_count(self, capsys, monkeypatch):
        rp = ring_params(2, 2)
        base = group.correspond(rp, group.identity(rp))
        monkeypatch.setattr(group, "_image_reader", lambda params: lambda exps, digits: base)
        report = group.validate_correspondence(rp, 3)
        args = ["verify", "--d", "2", "--q", "2", "--radius", "3", "--assert", "correspondence"]
        assert run_cli(args) == 1
        out = capsys.readouterr().out
        assert f"ball maps isomorphically: {report.failure_count} failures, first" in out


class TestWorkersFlag:
    def test_graph_accepts_and_ignores_workers(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2", "--radius", "1", "--workers", "3"]) == 0
        assert capsys.readouterr().out == EXPECTED_DOT

    def test_verify_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--assert", "counting", "--workers", "2"])
        assert exc.value.code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("suite", ["counting", "folner", "index"])
    def test_verify_out_needs_the_correspondence_suite(self, capsys, tmp_path, suite):
        out = tmp_path / "x.csv"
        args = ["verify", "--k", "2", "--assert", suite, "--out", str(out)]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any suite ran
        assert captured.err.startswith("error:")
        assert not out.exists()

    def test_graph_takes_one_box_side(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2", "--h", "2,4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "one box side" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--assert", "folner", "--h", "4"], "compares two or more box sides"),
            (["verify", "--h", "4"], "compares two or more box sides"),
            (
                ["qilab", "--mode", "distortion", "--h", "3,5"],
                "distortion mode takes one box side --h, got '3,5'",
            ),
            (
                ["qilab", "--mode", "umap", "--k", "2", "--h", "4,8"],
                "umap mode takes one box side --h, got '4,8'",
            ),
            (
                ["qilab", "--mode", "distortion", "--assert", "bounded"],
                "distortion mode takes no --assert",
            ),
            (["qilab", "--assert", "ktoone"], "chain mode supports --assert bounded|divergence"),
            (
                ["qilab", "--mode", "audit", "--assert", "divergence"],
                "audit mode supports --assert bounded,",
            ),
            (
                ["qilab", "--mode", "umap", "--k", "2", "--assert", "bounded"],
                "umap mode supports --assert ktoone",
            ),
            (
                ["verify", "--d", "2", "--q", "2", "--assert", "folner", "--radius", "9"],
                "verify --assert folner does not read --radius",
            ),
            (
                ["verify", "--assert", "correspondence", "--radius", "2", "--h", "4"],
                "verify --assert correspondence does not read --h",
            ),
            (
                ["verify", "--assert", "correspondence", "--k", "1"],
                "verify --assert correspondence does not read --k",
            ),
            (["verify", "--assert", "index", "--k", "2", "--r", "1"], "index does not read --r"),
            (
                ["qilab", "--mode", "umap", "--k", "2", "--r", "5", "--pairs", "3"],
                "qilab --mode umap does not read --pairs, --r",
            ),
            (["qilab", "--seed", "0"], "qilab --mode chain does not read --seed"),
            (["qilab", "--format", "csv"], "qilab --mode chain does not read --format"),
            (
                ["qilab", "--mode", "distortion", "--k", "2", "--r", "1"],
                "qilab --mode distortion does not read --k, --r",
            ),
            (
                ["qilab", "--mode", "audit", "--pairs", "30", "--seed", "1"],
                "qilab --mode audit does not read --pairs, --seed",
            ),
            (["qilab", "--mode", "audit", "--format", "dot"], "audit mode writes csv or json, not 'dot'"),
            # the group suites check the ring before any suite runs
            (["verify", "--d", "2", "--q", "4"], "q must be a prime integer, got 4"),
            (["verify", "--d", "5", "--q", "3"], "d - 1 = 4 exceeds q = 3"),
            # an empty --out is rejected like an empty --config
            (["graph", "--d", "2", "--q", "2", "--radius", "1", "--out", ""], "--out needs a file path"),
            (["verify", "--assert", "correspondence", "--out", ""], "--out needs a file path"),
            # the r=0 boundary is empty, so no Folner ratio can decrease
            (
                ["verify", "--d", "2", "--q", "2", "--assert", "folner", "--r", "0"],
                "boundary thickness --r >= 1, got 0",
            ),
            (["verify", "--r", "-1"], "boundary thickness --r >= 1, got -1"),
            # an --out path in a missing directory, before the payload is built
            (
                ["verify", "--d", "2", "--q", "2", "--radius", "3", "--assert", "correspondence",
                 "--out", "/missing/dir/x.csv"],
                "--out needs a writable directory, got '/missing/dir'",
            ),
            (
                ["graph", "--d", "2", "--q", "2", "--radius", "1", "--out", "/missing/dir/x.dot"],
                "--out needs a writable directory, got '/missing/dir'",
            ),
            (
                ["verify", "--assert", "correspondence", "--out", "."],
                "--out needs a file path, got the directory '.'",
            ),
            # graph checks its format before it builds the ball or box
            (
                ["graph", "--d", "2", "--q", "2", "--radius", "14", "--format", "csv"],
                "graph supports dot or json, not 'csv'",
            ),
            (
                ["graph", "--d", "2", "--q", "2", "--h", "14", "--format", "csv"],
                "graph supports dot or json, not 'csv'",
            ),
            # sides out of order could never pass the decreasing check
            (
                ["verify", "--assert", "folner", "--h", "2,2"],
                "the folner suite needs strictly increasing box sides --h, got '2,2'",
            ),
            (
                ["verify", "--assert", "folner", "--h", "4,2"],
                "the folner suite needs strictly increasing box sides --h, got '4,2'",
            ),
        ],
    )
    def test_rejected_before_any_work(self, capsys, no_work, argv, message):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert message in captured.err

    def test_out_in_a_read_only_directory_rejected_before_any_work(self, capsys, no_work, tmp_path):
        folder = tmp_path / "ro"
        folder.mkdir(mode=0o555)
        if os.access(folder, os.W_OK):
            pytest.skip("this process may write into a read-only directory (root)")
        argv = ["verify", "--assert", "correspondence", "--out", str(folder / "x.csv")]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out needs a writable directory, got {str(folder)!r}\n"

    @pytest.mark.parametrize(
        "lines,argv,message",
        [
            ("radius=9\n", ["verify", "--assert", "folner"], "folner does not read --radius"),
            ("map=alpha,id\n", ["verify"], "verify --assert all does not read --map"),
            ("r=2\n", ["qilab", "--mode", "umap", "--k", "2"], "umap does not read --r"),
            # an unknown suite or mode is named before any unread flag
            ("assert=bogus\nmap=id,id\n", ["verify"], "unknown verify suite 'bogus'"),
            ("mode=bogus\nradius=2\n", ["qilab"], "unknown qilab mode 'bogus'"),
        ],
    )
    def test_config_flags_are_checked_too(self, capsys, no_work, tmp_path, lines, argv, message):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(lines)
        assert run_cli(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert message in captured.err


class TestFormerlyUncheckedArgs:
    """Argvs that once crashed, ran on silently, or were rejected late."""

    def assert_usage_error(self, argv, capsys, message):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert message in captured.err

    def test_chain_scan_at_r_0(self, capsys):
        argv = ["qilab", "--d", "2", "--q", "2", "--map", "alpha,id", "--h", "2,4", "--r", "0"]
        self.assert_usage_error(argv, capsys, "r must be at least 1, got 0")

    def test_graph_config_key_without_a_flag(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(cli, "ball", refuse)
        monkeypatch.setattr(cli, "box_graph", refuse)
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("seed=3\n")
        argv = ["graph", "--d", "2", "--q", "2", "--radius", "1", "--config", str(cfg)]
        self.assert_usage_error(argv, capsys, "graph does not read --seed")

    def test_pairs_0_before_the_box_is_built(self, capsys, no_work):
        argv = ["qilab", "--mode", "distortion", "--pairs", "0"]
        self.assert_usage_error(argv, capsys, "need at least one sample pair, got 0")

    @pytest.mark.parametrize("mode", ["umap", "distortion"])
    @pytest.mark.parametrize("side", ["0", "-2"])
    def test_side_below_1_names_the_flag(self, capsys, no_work, mode, side):
        argv = ["qilab", "--mode", mode, "--h", side] + (["--k", "2"] if mode == "umap" else [])
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {mode} mode needs --h >= 1, got {side}\n"

    def test_graph_side_0_is_one_vertex(self, capsys):
        assert run_cli(["graph", "--d", "2", "--q", "2", "--h", "0"]) == 0
        assert capsys.readouterr().out == 'graph dl {\n  "0:|0:" [heights="0,0"];\n}\n'
        assert run_cli(["graph", "--d", "2", "--q", "2", "--h", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph needs --h >= 0, got -1\n"


def test_h_spans_n_heights_in_umap_and_n_plus_1_elsewhere(capsys):
    # a fiber at d = q = 2 over a box of side s holds 2^s members
    argv = ["qilab", "--mode", "umap", "--d", "2", "--q", "2", "--k", "2", "--h", "4"]
    assert run_cli(argv) == 0
    assert "umap: 32 vertices onto 16 images" in capsys.readouterr().err  # [0, 3]: 4 x 2^3
    assert run_cli(["verify", "--d", "2", "--q", "2", "--assert", "counting", "--h", "4"]) == 0
    assert "box size 80 = cube 5 x fiber 16" in capsys.readouterr().out  # [0, 4]: 5 x 2^4


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_commands_exit_0(capsys, tmp_path, monkeypatch):
    """Every `dllab ...` line of the README's CLI section runs and exits 0."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = section.splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("dllab ")]
    assert {argv[1] for argv in commands} == {"graph", "verify", "qilab"}
    # the config file the README writes before using it
    (printf,) = [shlex.split(line) for line in lines if line.startswith("printf ")]
    assert printf[2:] == [">", "lab.cfg"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.cfg").write_text(printf[1].replace("\\n", "\n"), encoding="utf-8")
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
        capsys.readouterr()


class TestFlagTable:
    """Each subcommand declares exactly the flags its reads tables name."""

    EXPECTED = {
        "graph": {"--d", "--q", "--k", "--radius", "--h", "--format", "--out", "--workers"},
        "verify": {"--d", "--q", "--k", "--radius", "--h", "--r", "--out", "--assert"},
        "qilab": {
            "--d", "--q", "--k", "--h", "--r", "--map", "--format", "--out",
            "--seed", "--workers", "--mode", "--pairs", "--assert",
        },
    }

    @staticmethod
    def option_strings(sub):
        return {s for action in sub._actions for s in action.option_strings} - {
            "-h", "--help", "--config"
        }

    def test_option_strings_match_reads_tables(self):
        _, subs = cli.build_parser()
        reads = {
            "graph": cli._GRAPH_READS,
            "verify": cli._VERIFY_ALWAYS.union(*cli._VERIFY_READS.values()),
            "qilab": cli._QILAB_ALWAYS.union(*cli._QILAB_READS.values()),
        }
        assert [sub.prog.split()[-1] for sub in subs] == list(self.EXPECTED)
        for sub, (name, expected) in zip(subs, self.EXPECTED.items()):
            assert self.option_strings(sub) == expected, name
            assert {f"--{flag}" for flag in reads[name]} == expected, name
        assert "--workers" not in self.EXPECTED["verify"]
        assert "--seed" not in self.EXPECTED["graph"]

    def test_every_config_key_is_a_flag(self):
        _, subs = cli.build_parser()
        assert {f"--{flag}" for flag in cli._FLAGS} == set().union(
            *(self.option_strings(sub) for sub in subs)
        )

    def test_choices(self):
        _, (graph, verify, qilab_sub) = cli.build_parser()
        choices = {
            (sub.prog.split()[-1], s): action.choices
            for sub in (graph, verify, qilab_sub)
            for action in sub._actions
            for s in action.option_strings
            if action.choices is not None
        }
        assert choices == {
            ("graph", "--format"): ("dot", "json", "csv"),
            ("verify", "--assert"): ("counting", "folner", "correspondence", "index", "all"),
            ("qilab", "--format"): ("dot", "json", "csv"),
            ("qilab", "--mode"): ("chain", "audit", "umap", "distortion"),
            ("qilab", "--assert"): ("bounded", "divergence", "ktoone"),
        }


class TestParserPerCommand:
    """One parser, built at import, reads every argv: commands, help and usage errors."""

    ORACLE_ARGVS = [
        [],
        ["nosuch"],
        ["--help"],
        ["--d", "2", "graph"],
        ["--", "graph"],
        ["graph", "--help"],
        ["verify", "--help"],
        ["qilab", "--help"],
        ["qilab", "--bogus", "1"],
        ["graph", "--d", "2", "--q", "2", "--radius", "1", "extra"],
        ["verify", "--workers", "2"],
        ["qilab", "--d", "x"],
        ["graph", "--config", "{cfg}", "extra"],
    ]

    @staticmethod
    def exit_status(run, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        return exc.value.code

    @pytest.mark.parametrize("argv", ORACLE_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
    def test_usage_bytes_match_the_full_parser(self, capsys, no_work, tmp_path, argv):
        cfg = tmp_path / "r1.cfg"
        cfg.write_text("radius=1\n")
        argv = [token.format(cfg=cfg) for token in argv]
        status = self.exit_status(cli.main, argv)
        got = capsys.readouterr()
        expected_status = self.exit_status(cli.build_parser()[0].parse_args, argv)
        expected = capsys.readouterr()
        assert (status, got.out, got.err) == (expected_status, expected.out, expected.err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--d", "2", "--q", "2", "--radius", "1"],
            ["verify", "--d", "2", "--q", "2", "--k", "2", "--assert", "index"],
            ["qilab", "--d", "2", "--q", "2", "--h", "2"],
            ["qilab", "--config", "{cfg}"],
        ],
        ids=["graph", "verify", "qilab", "qilab-config"],
    )
    def test_one_parser_per_call(self, capsys, monkeypatch, tmp_path, argv):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("d=2\nq=2\nh=2\n")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.main([token.format(cfg=cfg) for token in argv]) == 0
        assert built == []

    def test_config_values_do_not_outlive_their_call(self, capsys, tmp_path):
        # the parser is shared, so a file's values must not become its defaults
        cfg = tmp_path / "h2.cfg"
        cfg.write_text("h=2\n")
        argv = ["graph", "--d", "2", "--q", "2", "--format", "json"]
        assert cli.main(argv + ["--config", str(cfg)]) == 0
        assert "cube" in json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph needs exactly one of --radius or --h\n"
        assert cli.main(argv + ["--radius", "1"]) == 0
        assert "cube" not in json.loads(capsys.readouterr().out)


# Edge values of the integer and box-side flags, each given to a command,
# suite or mode that reads the flag: zero, negative and comma lists.
SWEEP_VALUES = ("0", "-1", "1,2", "2,-1")
SWEEP_BASES = (
    (["graph", "--radius", "1"], ("d", "q", "k", "radius")),
    (["graph"], ("h",)),
    (["verify", "--assert", "counting"], ("d", "q", "k", "h")),
    (["verify", "--assert", "folner"], ("r", "h")),
    (["verify", "--assert", "correspondence"], ("radius",)),
    (["verify", "--assert", "index"], ("k",)),
    (["qilab", "--mode", "chain"], ("d", "q", "k", "h", "r")),
    (["qilab", "--mode", "audit"], ("h", "r")),
    (["qilab", "--mode", "umap", "--k", "2"], ("h",)),
    (["qilab", "--mode", "umap"], ("k",)),
    (["qilab", "--mode", "distortion", "--pairs", "3"], ("h",)),
)
ARGV_SWEEP = [
    (base, flag, value) for base, flags in SWEEP_BASES for flag in flags for value in SWEEP_VALUES
]


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_argv_sweep_exits_cleanly(capsys, tmp_path, via_config):
    """Every edge argv exits 0, 1 or 2, and never with a traceback."""
    cfg = tmp_path / "sweep.cfg"
    for base, flag, value in ARGV_SWEEP:
        if via_config:
            cfg.write_text(f"{flag}={value}\n")
            argv = base + ["--config", str(cfg)]
        else:
            argv = base + [f"--{flag}", value]
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        err = capsys.readouterr().err
        assert status in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if status == 2:
            assert "error:" in err, argv


# The seeded fuzz's values per flag: the first FUZZ_VALID[flag] are valid,
# the rest are bad ints, empty and malformed lists, malformed map JSON and
# a missing @file. Box sides of 3,000,000 and 30,000,000 and --k 100000
# are over the vertex budget wherever they are read. --radius and verify's
# --k stay small: a ball's budget is checked as its nodes are found, so a
# large value runs until 500,000 nodes have been found.
FUZZ_VALUES = {
    "d": ("2", "3", "0", "1", "-2", "x", ""),
    "q": ("2", "3", "4", "1", "x", ""),
    "k": ("1", "2", "3", "0", "-1", "x", "100000"),
    "radius": ("0", "1", "2", "-1", "x"),
    "h": ("0", "1", "2", "3", "2,4", "", ",", "1,,2", "x", "-1", "2,-1", "3000000", "30000000"),
    "r": ("0", "1", "2", "-1", "x"),
    "map": (
        "alpha,id", "id,id", "alpha-inv,id", "shift:1,id", "shift:x,id", "alpha", "", "bogus",
        "[", "[[]", '{"a": 1}', "[1, 2]", '[[{"kind": "shift"}], []]', '[[{"kind": "nosuch"}], []]',
        '[[{"kind": "shift", "m": "x"}], []]', "@{tmp}/missing.json",
    ),
    "format": ("dot", "json", "csv", "xml"),
    "out": ("{tmp}/out.txt", "", "{tmp}", "{tmp}/missing/out.txt"),
    "seed": ("0", "7", "-1", "x"),
    "workers": ("1", "2", "x"),
    "mode": ("chain", "audit", "umap", "distortion", "bogus"),
    "pairs": ("1", "3", "0", "-2", "x"),
    "assert": ("bounded", "divergence", "ktoone", "counting", "folner", "correspondence", "index", "all", "bogus"),
}
FUZZ_VALID = {
    "d": 2, "q": 2, "k": 3, "radius": 3, "h": 5, "r": 3, "map": 4, "format": 3, "out": 1,
    "seed": 2, "workers": 2, "mode": 4, "pairs": 2, "assert": 8,
}


def fuzz_argvs(rng, count):
    """count argvs: a command and up to six flags, most of them ones the command reads."""
    for _ in range(count):
        command = rng.choice(list(cli._COMMANDS))
        reads = sorted(cli._COMMANDS[command][2])
        argv = [command]
        for _ in range(rng.randint(0, 6)):
            flag = rng.choice(reads) if rng.random() < 0.85 else rng.choice(list(cli._FLAGS))
            values = FUZZ_VALUES[flag]
            if command == "verify" and flag == "k":
                values = values[:6]  # without 100000
            argv += [f"--{flag}", rng.choice(values[: FUZZ_VALID[flag]] if rng.random() < 0.6 else values)]
        if rng.random() < 0.05:
            argv += ["--config", "{tmp}/missing.cfg"]
        yield argv


def test_seeded_argv_fuzz_exits_cleanly(capsys, tmp_path):
    """Seeded argvs drawn from the flag table, and the oversized counts, never raise."""
    argvs = list(fuzz_argvs(random.Random(0), 400)) + [argv for argv, _ in REFUSED_AT_ONCE]
    statuses = []
    for argv in argvs:
        argv = [token.replace("{tmp}", str(tmp_path)) for token in argv]
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        err = capsys.readouterr().err
        assert status in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if status == 2:
            assert err.startswith(("error:", "usage:")), argv
        statuses.append(status)
    # the draw reaches commands that run, not only usage errors
    assert statuses.count(0) >= 50
