"""Command-line interface for the Diestel-Leader laboratory.

Three subcommands:

* ``graph``   exports a ball or a box slice of DL_d(q) (or its index-k
  variant) as DOT or JSON;
* ``verify``  runs the exact structural check suites (counting, isoperimetric
  ratios, group correspondence, index-k subgroup) and prints one PASS/FAIL
  line per check;
* ``qilab``   runs the quasi-isometry laboratory: chain scans, fiber-count
  audits, the k-to-1 tile map, and distortion sampling.

All outputs are byte-deterministic: vertices are sorted by canonical key,
every CSV and JSON payload is written by ``_csv_payload`` (fixed line
terminator) or ``dlgraph.json_payload`` (sorted keys), except graph
exports, which ``dlgraph.dot_chunks`` and ``dlgraph.json_chunks`` format
as text chunks in the same dialect, written to stdout or ``--out`` as
they come (``_emit``), and the tile-map CSV, whose rows
``_qilab_umap`` formats as text in ``_csv_payload``'s bytes; randomized
modes take an explicit seed.  ``verify`` and a ``qilab`` assertion write
their verdicts through ``_verdicts``: one ``PASS|FAIL name: detail`` line
per check, and exit 1 if any fails.  A ``qilab`` payload's columns are its result record's
fields (``_cells``; the chain CSV's ``_chain_csv`` writes each Fraction as
its float's repr, and names the side and column of one too large for a
float before any row is written).  A named ``--map`` is a shift (``NAMED_MAPS``); only a
JSON map is parsed, by ``qilab.map_from_description``.
Every ``ValueError``, an over-budget ``BudgetError`` included, prints
``error:`` and exits 2.  ``graph`` and ``qilab`` still accept ``--workers``
but ignore it: fiber counts are per coordinate and run in
one process.  Each flag is declared once, in ``_FLAGS``, and each
subcommand has exactly the flags that its reads tables name; each
``qilab`` mode is one ``_QILAB_MODES`` entry.  One parser,
built at import (``_PARSER``), reads every argv, help and usage errors
included.  argparse reads ``--config`` like any other flag, so
``--config=F`` and unique prefixes such as ``--conf F`` name the same
file, and an empty path is an error.  The file holds ``key=value`` lines,
one flag name per key, typed as that flag.  The command's subparser then
reads its arguments again into a namespace of the file's values; flags
win, and the shared parser's defaults never change.  A flag that the
chosen command, ``verify`` suite or ``qilab`` mode does not read is a
usage error, whether given directly or by the config file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import accumulate

from . import dlgraph, group, qilab
from .algebra import ring_params
from .dlgraph import (
    DLVertex,
    ball,
    base_vertex,
    box_graph,
    box_size,
    cube_size,
    dl_neighbors,
    expected_degree,
    dot_chunks,
    graph_params,
    height_cube,
    json_chunks,
    json_payload,
    side_box,
)

# each named coordinate map is the shift by this many indices
NAMED_MAPS = {"id": 0, "alpha": 1, "alpha-inv": -1}

def _load_config(path: str) -> dict:
    """Read key=value lines; blank lines and # comments are skipped.

    A key is a flag name, and its value takes that flag's type.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FLAGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[_dest(key)] = _FLAGS[key].get("type", str)(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def _cells(record, fraction=lambda v, field: str(v)) -> dict:
    """A result record's fields as payload cells, each Fraction written by fraction(v, field)."""
    return {f: fraction(v, f) if isinstance(v, Fraction) else v for f, v in record._asdict().items()}


def _csv_payload(header, rows) -> str:
    """The one CSV dialect; rows may be a generator, written as it yields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _verdicts(checks) -> "tuple[list[str], int]":
    """A PASS|FAIL line per (name, ok, detail) check, and exit status 1 if any failed."""
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks]
    return lines, 0 if all(ok for _, ok, _ in checks) else 1


def _emit(chunks, out_path, summary_lines) -> None:
    """Write the payload's text chunks to --out (or stdout) and summaries alongside.

    The chunks are written as they come, so a payload is never held whole
    here. With --out the payload goes to the file and summaries to stdout;
    without it the payload owns stdout and summaries go to stderr, so piped
    payload bytes stay clean either way.
    """
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        for line in summary_lines:
            print(line)
    else:
        sys.stdout.writelines(chunks)
        for line in summary_lines:
            print(line, file=sys.stderr)


# The flags each command reads. `graph` reads all of its flags. verify and
# qilab always read --d, --q, the suite or mode and --assert, and the flags
# their suite or mode lists (_VERIFY_READS, _QILAB_MODES); the verify suite
# `all` runs every suite, so it reads all of theirs. --workers is accepted
# and ignored. Any other flag, given on the command line or by --config, is
# a usage error, because a flag that changes nothing would look as if it
# had been applied.
_GRAPH_READS = {"d", "q", "k", "radius", "h", "format", "out", "workers"}
_VERIFY_ALWAYS = {"d", "q", "assert"}
_QILAB_ALWAYS = {"d", "q", "mode", "assert", "workers"}
_VERIFY_READS = {
    "counting": {"h", "k"},
    "folner": {"h", "r", "k"},
    "correspondence": {"radius", "out"},
    "index": {"k"},
}

# Every flag, once, as its argparse keywords. A subcommand declares the
# flags it reads; a config key takes its flag's type (str by default), and
# choices are checked on the command line only. --mode and --assert take
# their choices from the command's entry in _COMMANDS (_add_command).
_FLAGS = {
    "d": {"type": int, "default": 2, "help": "number of tree coordinates"},
    "q": {"type": int, "default": 2, "help": "branching, q >= 2; the correspondence and index suites need a prime"},
    "k": {"type": int, "help": "index parameter"},
    "radius": {"type": int, "help": "ball radius"},
    "h": {"help": "box side(s), comma separated; side N spans heights 0..N, 0..N-1 in umap mode"},
    "r": {"type": int, "help": "boundary thickness"},
    "map": {"help": "coordinate maps: names (alpha,id), JSON, or @file"},
    "format": {"choices": ("dot", "json", "csv")},
    "out": {"help": "write payload to file"},
    "seed": {"type": int, "help": "sampling seed (default 0)"},
    "workers": {"type": int, "help": "accepted and ignored (single process)"},
    "mode": {"default": "chain"},
    "pairs": {"type": int, "help": "distortion sample pairs, at least 1 (default 30)"},
    "assert": {"dest": "assertion"},
}


def _dest(flag: str) -> str:
    """The namespace attribute of a flag; --assert is stored as assertion."""
    return _FLAGS[flag].get("dest", flag)


def _reject_unread(args, what: str, reads) -> None:
    """Raise ValueError if a flag that `what` does not read is set.

    Every config key names a flag, so this also catches a config key that
    the chosen command has no flag for.
    """
    unread = [
        f"--{flag}"
        for flag in sorted(_FLAGS)
        if flag not in reads and getattr(args, _dest(flag), None) is not None
    ]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")


def _parse_h_list(text: str) -> "list[int]":
    """The sides in a comma list; blank text is an empty list, and an empty item is an error."""
    if not text.strip():
        raise ValueError("--h list is empty")
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--h expects integers separated by commas, got {text!r}")


def _one_side(command: str, text: str, least: int = 1) -> int:
    """The box side of a command that builds one box from --h, at least `least`."""
    values = _parse_h_list(text)
    if len(values) != 1:
        raise ValueError(f"{command} takes one box side --h, got {text!r}")
    if values[0] < least:
        raise ValueError(f"{command} needs --h >= {least}, got {values[0]}")
    return values[0]


def _interior_map_from_arg(params, text: str) -> qilab.InteriorMap:
    """Build an interior map from a CLI spec, checking its coordinate count first.

    Accepts a comma list of shifts (NAMED_MAPS names or shift:m), a JSON
    list of per-coordinate map descriptions, or @path to a file holding
    that JSON.
    """
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    if text.startswith("["):
        specs, build = json.loads(text), qilab.map_from_description
    else:
        specs, build = [], qilab.shift_map
        for name in map(str.strip, text.split(",")):
            if name in NAMED_MAPS:
                specs.append(NAMED_MAPS[name])
            elif name.startswith("shift:"):
                specs.append(int(name[6:]))
            else:
                raise ValueError(f"unknown coordinate map {name!r}")
    if len(specs) != params.d:
        raise ValueError(f"map spec has {len(specs)} coordinates, graph has {params.d}")
    return qilab.interior_map(params, (build(params.q, s) for s in specs))


# ---------------------------------------------------------------------------
# graph subcommand

def cmd_graph(args) -> int:
    _reject_unread(args, "graph", _GRAPH_READS)
    params = graph_params(args.d, args.q, args.k if args.k is not None else 1)
    if (args.radius is None) == (args.h is None):
        raise ValueError("graph needs exactly one of --radius or --h")
    # the format is checked before anything is built
    if args.format not in (None, "dot", "json"):
        raise ValueError(f"graph supports dot or json, not {args.format!r}")
    if args.radius is not None:
        g = ball(base_vertex(params), args.radius)
    else:
        # side 0 is the one-vertex box over heights 0
        g = box_graph(params, side_box(params, _one_side("graph", args.h, least=0)))
    _emit(json_chunks(g) if args.format == "json" else dot_chunks(g), args.out, [])
    return 0


# ---------------------------------------------------------------------------
# verify subcommand

def _check_counting(params, h) -> "list[tuple[str, bool, str]]":
    box = side_box(params, h)
    # per point, not by box_size's closed form, so that the check is
    # independent; the cube and the printed size are judged before any point is listed
    dlgraph._within_budget(cube_size(box.cube), "cube has {} points")
    dlgraph._printable(cube_size(box.cube), f"side {h}: box size", params.q, (params.d - 1) * h)
    points = dlgraph.cube_points(box.cube)
    sizes = [dlgraph.box_fiber_size(params, box, pt) for pt in points]
    expected_fiber = params.q ** ((params.d - 1) * h)
    fibers = set(sizes)
    size = sum(sizes)
    deg = len(dl_neighbors(base_vertex(params)))
    return [
        (
            "counting.fibers",
            fibers == {expected_fiber},
            f"box fibers over [0,{h}]^{params.d - 1} all q^((d-1)h)={expected_fiber}: got {sorted(fibers)}",
        ),
        (
            "counting.box_size",
            size == cube_size(box.cube) * expected_fiber,
            f"box size {size} = cube {cube_size(box.cube)} x fiber {expected_fiber}",
        ),
        (
            "counting.degree",
            deg == expected_degree(params),
            f"vertex degree {deg} matches formula {expected_degree(params)}",
        ),
    ]


def _check_folner(params, r, sides) -> "list[tuple[str, bool, str]]":
    ratios = []
    for h in sides:
        # the height-set ratio lists the cube, checked first; the box ratio is a closed form
        box = side_box(params, h)
        set_ratio = Fraction(len(dlgraph.cube_boundary(params, box.cube, r)), cube_size(box.cube))
        box_ratio = Fraction(dlgraph.box_boundary_size(params, box, r), box_size(params, box))
        ratios.append((h, box_ratio, set_ratio))
    identity_ok = all(b == c for _, b, c in ratios)
    decreasing = all(ratios[i][1] > ratios[i + 1][1] for i in range(len(ratios) - 1))
    detail = ", ".join(f"h={h}: {b}" for h, b, _ in ratios)
    return [
        (
            "folner.identity",
            identity_ok,
            f"box boundary ratio equals height-set ratio at r={r} ({detail})",
        ),
        (
            "folner.decreasing",
            decreasing,
            f"boundary ratio strictly decreases in h at r={r}",
        ),
    ]


def _check_correspondence(rp, radius) -> "tuple[list, object]":
    report = group.validate_correspondence(rp, radius)
    checks = [
        (
            "correspondence.spheres",
            report.sphere_group == report.sphere_graph,
            f"group spheres {report.sphere_group} match graph spheres {report.sphere_graph}",
        ),
        (
            "correspondence.isomorphism",
            report.ok,
            f"radius-{radius} ball maps isomorphically"
            + ("" if report.ok else f": {report.failure_count} failures, first {report.failures[:3]}"),
        ),
    ]
    return checks, report


def _check_index(rp, k) -> "list[tuple[str, bool, str]]":
    cosets, positives, covered = group.index_check(rp, k)
    return [
        (
            "index.cosets",
            cosets == set(range(k)),
            f"radius-{k} ball meets exactly k={k} cosets: {sorted(cosets)}",
        ),
        (
            "index.coverage",
            covered,
            f"{positives} membership-positive elements of the radius-3 "
            "ball all reached by depth-3 subgroup words",
        ),
    ]


def cmd_verify(args) -> int:
    suite = args.assertion or "all"
    if suite == "all":
        reads = set().union(*_VERIFY_READS.values())
    elif suite in _VERIFY_READS:
        reads = _VERIFY_READS[suite]
    else:
        raise ValueError(f"unknown verify suite {args.assertion!r}")
    _reject_unread(args, f"verify --assert {suite}", reads | _VERIFY_ALWAYS)
    params = graph_params(args.d, args.q, args.k if args.k is not None else 1)
    # without --h the side is the smallest multiple of k that is at least 2,
    # so index-k cubes align, and the Folner suite takes 1, 2 and 3 times it
    side = max(2, params.k)
    sides = _parse_h_list(args.h) if args.h is not None else None
    r = args.r if args.r is not None else 1
    if suite in ("folner", "all"):
        # with one side the decreasing check would pass vacuously, and with
        # sides out of order or the empty r=0 boundary it could never pass
        if sides is not None and len(sides) < 2:
            raise ValueError(f"the folner suite compares two or more box sides --h, got {args.h!r}")
        if sides is not None and any(a >= b for a, b in zip(sides, sides[1:])):
            raise ValueError(f"the folner suite needs strictly increasing box sides --h, got {args.h!r}")
        if r < 1:
            raise ValueError(f"the folner suite needs a boundary thickness --r >= 1, got {r}")
    # the group suites check the ring once, before any suite runs
    rp = ring_params(params.q, params.d) if suite in ("correspondence", "index", "all") else None
    checks = []
    report = None
    if suite in ("counting", "all"):
        for h in sides or (side,):
            checks.extend(_check_counting(params, h))
    if suite in ("folner", "all"):
        checks.extend(_check_folner(params, r, sides or (side, 2 * side, 3 * side)))
    if suite in ("correspondence", "all"):
        radius = args.radius if args.radius is not None else 3
        got, report = _check_correspondence(rp, radius)
        checks.extend(got)
    if suite in ("index", "all"):
        if params.k > 1:
            checks.extend(_check_index(rp, params.k))
        elif suite == "index":
            raise ValueError("index suite needs --k >= 2")
    lines, status = _verdicts(checks)
    for line in lines:
        print(line)
    if args.out is not None and report is not None:
        sizes = report.sphere_group
        rows = zip(range(len(sizes)), sizes, accumulate(sizes))
        _emit([_csv_payload(["radius", "sphere_size", "ball_size"], rows)], args.out, [])
    return status


# ---------------------------------------------------------------------------
# qilab subcommand

def _float_repr(v: Fraction, field: str, side: int) -> str:
    """repr(float(v)), or a ValueError naming the side and field when v is too large for a float."""
    try:
        return repr(float(v))
    except OverflowError:
        raise ValueError(f"side {side}: {field} is too large to write as a float") from None


def _chain_csv(records) -> str:
    """The chain CSV, each Fraction written as its float's repr.

    Every row is made before any is written, so a ratio too large for a
    float is refused, by side and column, with no row written.
    """
    rows = [_cells(r, partial(_float_repr, side=r.h)).values() for r in records]
    return _csv_payload(qilab.ChainRecord._fields, rows)


def _qilab_map(args, params) -> qilab.InteriorMap:
    """The --map of a mode that reads one: by default alpha, then id on every other coordinate."""
    spec = "alpha" + ",id" * (params.d - 1) if args.map is None else args.map
    return _interior_map_from_arg(params, spec)


def _qilab_chain(args, params) -> "tuple[str, list, list]":
    imap = _qilab_map(args, params)
    h_values = _parse_h_list("2,4,6" if args.h is None else args.h)
    if args.k is not None:
        target = args.k
    else:
        # 1/lambda = q**e, printed in the summary, is checked by its exponent before it is built
        e = -imap.lam_exponent()
        target = dlgraph._printable(1, "chain target 1/lambda", params.q, abs(e))
        if e < 0:
            raise ValueError(f"1/lambda = 1/{target} is not an integer; pass an explicit --k target")
    records = qilab.uf_chain_scan(
        imap, target, h_values, r=args.r if args.r is not None else 1
    )
    payload = _chain_csv(records)
    summaries = [
        f"chain target k={target}, h={h_values}, "
        f"ratios {[str(r.ratio_boundary) for r in records]}"
    ]
    checks = []
    if args.assertion == "bounded":
        ok = all(abs(r.ratio_boundary) <= 1 for r in records)
        detail = "|chain|/|boundary| <= 1 at every h" if ok else "|chain|/|boundary| exceeds 1"
        checks.append(("chain.bounded", ok, detail))
    elif args.assertion == "divergence":
        first, last = abs(records[0].ratio_boundary), abs(records[-1].ratio_boundary)
        increasing = all(
            abs(records[i].ratio_boundary) < abs(records[i + 1].ratio_boundary)
            for i in range(len(records) - 1)
        )
        ok = increasing and first > 0 and last >= 2 * first
        detail = (
            "boundary-normalized sums grow (last >= 2x first)"
            if ok
            else "no boundary-rate growth detected"
        )
        checks.append(("chain.divergence", ok, detail))
    return payload, summaries, checks


def _qilab_audit(args, params) -> "tuple[str, list, list]":
    imap = _qilab_map(args, params)
    if args.format not in (None, "csv", "json"):
        raise ValueError(f"audit mode writes csv or json, not {args.format!r}")
    h_values = _parse_h_list("4" if args.h is None else args.h)
    # the bounds hold only from the least radius on, so a smaller --r is a usage error
    bilip = dlgraph._printable(1, "the bilipschitz constant K", params.q, imap.bilip_exponent())
    least = qilab.audit_radius(params.q, bilip)
    if args.r is not None and args.r < least:
        raise ValueError(f"audit mode needs --r >= {least}, the least r >= 1 with "
                         f"{params.q}^r >= K = {bilip}, got {args.r}")
    audits = [qilab.fiber_count_audit(imap, side_box(params, h), r=args.r) for h in h_values]
    rows = [_cells(a) for a in audits]
    if args.format == "csv":
        payload = _csv_payload(qilab.FiberAudit._fields, (row.values() for row in rows))
    else:
        payload = json_payload(rows[0] if len(rows) == 1 else rows)
    summaries = [
        f"audit h={a.h}: {a.lower_bound} <= {a.total_preimages} <= {a.upper_bound}"
        for a in audits
    ]
    checks = []
    if args.assertion == "bounded":
        ok = all(a.bounds_ok for a in audits)
        detail = (
            "total preimages within two-sided bounds" if ok else "total preimages escape the bounds"
        )
        checks.append(("audit.bounded", ok, detail))
    return payload, summaries, checks


def _qilab_umap(args, params) -> "tuple[str, list, list]":
    k = args.k
    if k is None or k < 2:
        raise ValueError("umap mode needs --k >= 2 (the index of the target lattice)")
    side = 3 * k if args.h is None else _one_side("umap mode", args.h)
    region = height_cube([(0, side - 1)] * (params.d - 1))
    tiling = qilab.make_tiling(params, region, k)
    listing, image, signatures = qilab.umap_positions(tiling, k)
    n = len(listing.keys)
    hits = [0] * n
    for j in image:
        hits[j] += 1
    # a fiber's members share their first height, its point's first axis:
    # each is hit k times when that is in kZ, else never; every fiber of
    # the box has the same size (dlgraph.box_size)
    want, size = [], n // len(listing.offsets)
    for point in listing.offsets:
        want += [0 if point[0] % k else k] * size
    exact = list(map(hits.__getitem__, listing.pos)) == want
    # the CSV rows as text, in _csv_payload's dialect: a key holding a comma
    # is quoted, once; keys hold no quote or line break
    cells = [f'"{key}"' if "," in key else key for key in listing.keys]
    del listing, want  # drops the sort permutations before the rows are built
    displacements = qilab.tile_displacements(params.d, signatures)
    rows = [f"{x},{cells[j]},{dist}\n" for x, j, dist in zip(cells, image, displacements)]
    payload = "key,image_key,displacement\n" + "".join(rows)
    summaries = [
        f"umap: {n} vertices onto {n - hits.count(0)} images, "
        f"multiplicities {sorted(set(hits) - {0})}"
    ]
    checks = []
    if args.assertion == "ktoone":
        detail = (
            f"exactly {k}-to-1 onto the index-{k} sublattice"
            if exact
            else "image multiplicities are not uniform"
        )
        checks.append(("umap.ktoone", exact, detail))
    return payload, summaries, checks


def _qilab_distortion(args, params) -> "tuple[str, list, list]":
    imap = _qilab_map(args, params)
    h = _one_side("distortion mode", "4" if args.h is None else args.h)
    n_pairs = args.pairs if args.pairs is not None else 30
    if n_pairs < 1:
        raise ValueError(f"need at least one sample pair, got {n_pairs}")
    # each pair costs two distance searches, so the count is held to the budget
    dlgraph._within_budget(n_pairs, "sample has {} pairs")
    box = side_box(params, h)
    members = dlgraph._listed_members(box, dlgraph._box_listing(params, box))
    table = qilab.psi_eval(imap, [DLVertex(params, c) for c in members])
    report = qilab.distortion(
        table,
        n_pairs=n_pairs,
        seed=args.seed if args.seed is not None else 0,
    )
    return json_payload(_cells(report)), [f"distortion: K={report.k_est} C={report.c_est}"], []


# Each qilab mode as (the flags it reads, its --assert choices, its runner).
_QILAB_MODES = {
    "chain": ({"k", "h", "r", "map", "out"}, ("bounded", "divergence"), _qilab_chain),
    "audit": ({"h", "r", "map", "format", "out"}, ("bounded",), _qilab_audit),
    "umap": ({"k", "h", "out"}, ("ktoone",), _qilab_umap),
    "distortion": ({"h", "map", "pairs", "seed", "out"}, (), _qilab_distortion),
}


def cmd_qilab(args) -> int:
    params = graph_params(args.d, args.q, 1)
    if args.mode not in _QILAB_MODES:
        raise ValueError(f"unknown qilab mode {args.mode!r}")
    reads, supported, run = _QILAB_MODES[args.mode]
    _reject_unread(args, f"qilab --mode {args.mode}", reads | _QILAB_ALWAYS)
    if args.assertion and args.assertion not in supported:
        raise ValueError(
            f"{args.mode} mode supports --assert {'|'.join(supported)}, not {args.assertion!r}"
            if supported
            else f"{args.mode} mode takes no --assert, got {args.assertion!r}"
        )
    payload, summaries, checks = run(args, params)
    lines, status = _verdicts(checks)
    _emit([payload], args.out, summaries + lines)
    return status


# ---------------------------------------------------------------------------
# parser

# Each command as (help text, handler, the flags it reads, the choices of
# its --mode and --assert).
_COMMANDS = {
    "graph": ("export a ball or box slice", cmd_graph, _GRAPH_READS, {}),
    "verify": (
        "run exact structural check suites",
        cmd_verify,
        _VERIFY_ALWAYS.union(*_VERIFY_READS.values()),
        {"assert": (*_VERIFY_READS, "all")},
    ),
    "qilab": (
        "quasi-isometry laboratory",
        cmd_qilab,
        _QILAB_ALWAYS.union(*(reads for reads, _, _ in _QILAB_MODES.values())),
        {
            "mode": tuple(_QILAB_MODES),
            "assert": tuple(dict.fromkeys(a for _, t, _ in _QILAB_MODES.values() for a in t)),
        },
    ),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give `parser` the flags of command `name`, --config and its handler."""
    _, func, reads, choices = _COMMANDS[name]
    for flag, kwargs in _FLAGS.items():
        if flag in reads:
            given = {"choices": choices[flag]} if flag in choices else {}
            parser.add_argument(f"--{flag}", **kwargs, **given)
    parser.add_argument("--config", help="key=value defaults file")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> "tuple[argparse.ArgumentParser, list]":
    """The full parser: the top level and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="dllab",
        description="exact Diestel-Leader graph and quasi-isometry laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    subparsers = [
        _add_command(subs.add_parser(name, help=text), name)
        for name, (text, *_) in _COMMANDS.items()
    ]
    return parser, subparsers


_PARSER, _SUBPARSERS = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _PARSER.parse_args(argv)  # help or a usage error exits here
    try:
        if args.config is not None:
            # argv[0] is the command; argparse keeps a namespace value that
            # no flag sets, so explicit flags win over the file's values
            command = _SUBPARSERS[list(_COMMANDS).index(args.command)]
            args = command.parse_args(argv[1:], argparse.Namespace(**_load_config(args.config)))
        # the payload is written last, so its path is checked first
        if args.out is not None:
            if not args.out:
                raise ValueError("--out needs a file path, got ''")
            folder = os.path.dirname(args.out) or "."
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise ValueError(f"--out needs a writable directory, got {folder!r}")
            if os.path.isdir(args.out):
                raise ValueError(f"--out needs a file path, got the directory {args.out!r}")
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
