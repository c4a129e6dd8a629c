"""The benchmark's four workloads, generated from a seed.

Every job is a real ``dllab`` argv. The seed picks the transducer tables,
the shift signs, the distortion sampling seeds and the job order; it reaches
the program only through those arguments. Item counts do not depend on the
seed, so rates compare across seeds.

Why each workload exists (which layer it loads, and which it must not):

* fiber_scan -- chain scans and fiber-count audits over canonical boxes.
  Nearly all time is per-member ``qilab.preimage_count``; it is the workload
  a closed-form fiber count would change. It never reaches ``group`` or
  ``algebra``, and never computes a distance.
* correspondence -- ``verify`` correspondence and index suites. The only
  workload where ``algebra`` ring arithmetic and ``group`` multiplication do
  the work; it never reaches ``qilab``.
* tilemap -- the k-to-1 tile map and sampled distortion. ``qilab.umap`` and
  memoized ``dl_distance`` (warm for umap, cold BFS for d=3 distortion).
* graph_export -- ball and box exports as DOT and JSON. ``dlgraph``
  neighbour generation, key building and serialization of large payloads,
  including the index-k neighbour rule.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass

WORKLOADS = ("fiber_scan", "correspondence", "tilemap", "graph_export")


@dataclass(frozen=True)
class Job:
    name: str  # stable across seeds
    argv: tuple
    expect: tuple  # summary lines (prefixes) the job must print
    kind: str  # how work items are read back from the output
    items: "int | None"  # work items predicted from the parameters


def box_members(d: int, q: int, h: int) -> int:
    """Members of the canonical box over [0, h]^(d-1): (h+1)^(d-1) q^((d-1)h)."""
    return (h + 1) ** (d - 1) * q ** ((d - 1) * h)


# ---------------------------------------------------------------------------
# seeded transducer maps
#
# Structural primitives (perm, prefix) sit strictly below every digit index
# that decides a fiber count in the job's boxes: coordinate levels run over
# [0, h] for the tracked coordinates and [-(d-1)h, 0] for the last one. The
# map then has the fiber counts of its shifts alone, so each assertion's
# outcome is known for every seed, while every preimage still runs through
# the seeded tables.


# Tables never fix the zero digit (zero word): streams are zero-filled, so a
# table that moves zero puts digits into every clone it touches, and every
# seed then does the same amount of work.


def _perm(rng: random.Random, q: int, levels: range) -> dict:
    perms = []
    for index in sorted(rng.sample(levels, 2)):
        table = list(range(q))
        while table[0] == 0:
            rng.shuffle(table)
        perms.append({"index": index, "table": table})
    return {"kind": "perm", "perms": perms}


def _prefix(rng: random.Random, q: int, lo: int, width: int = 3) -> dict:
    words = [list(w) for w in itertools.product(range(q), repeat=width)]
    images = [list(w) for w in words]
    while images[0] == words[0]:
        rng.shuffle(images)
    return {"kind": "prefix", "lo": lo, "hi": lo + width - 1, "table": [[w, i] for w, i in zip(words, images)]}


def _shift(m: int) -> dict:
    return {"kind": "shift", "m": m}


def check_alphabet(coords: list, q: int) -> None:
    """Raise ValueError unless every table is a bijection over Z/q.

    The package accepts some tables over the wrong alphabet, so the
    benchmark checks its own inputs rather than time that defect.
    """
    symbols = list(range(q))
    for prims in coords:
        for prim in prims:
            if prim["kind"] == "perm":
                for p in prim["perms"]:
                    if sorted(p["table"]) != symbols:
                        raise ValueError(f"perm table {p['table']} is not a bijection of Z/{q}")
            elif prim["kind"] == "prefix":
                width = prim["hi"] - prim["lo"] + 1
                words = sorted(tuple(w) for w, _ in prim["table"])
                images = sorted(tuple(i) for _, i in prim["table"])
                full = list(itertools.product(symbols, repeat=width))
                if words != full or images != full:
                    raise ValueError(f"prefix table is not a bijection of (Z/{q})^{width}")


def _seeded_maps(rng: random.Random) -> "list[tuple[str, int, int, list, tuple]]":
    """(label, d, q, per-coordinate primitives, box sides) for three maps.

    The structural primitives all sit on the first coordinate, which a fiber
    count always evaluates; the shifts of sign s and -s sit on the first and
    last coordinates. Either sign then costs about the same, so the seed
    changes the inputs without changing the work.
    """
    out = []
    s = rng.choice((1, -1))
    out.append(("prefix-shift", 2, 2, [[_shift(s), _prefix(rng, 2, rng.randint(-6, -3))], [_shift(-s)]], (6, 8)))
    s = rng.choice((1, -1))
    out.append(("perm", 2, 3, [[_shift(s), _perm(rng, 3, range(-6, 0))], [_shift(-s)]], (4,)))
    s = rng.choice((1, -1))
    out.append(("d3", 3, 2, [[_shift(s), _perm(rng, 2, range(-6, 0)), _prefix(rng, 2, rng.randint(-6, -3))], [],
                             [_shift(-s)]], (2, 3)))
    for _, _, q, coords, _ in out:
        check_alphabet(coords, q)
    return out


# ---------------------------------------------------------------------------
# workloads


def _chain(name, d, q, mapspec, hs, assertion=None, extra=(), mode="chain"):
    argv = ["qilab", "--d", str(d), "--q", str(q), "--map", mapspec, "--h", ",".join(map(str, hs))]
    if mode != "chain":
        argv[1:1] = ["--mode", mode]
    argv += list(extra)
    expect = ()
    if assertion:
        argv += ["--assert", assertion]
        expect = (f"PASS {'audit' if mode == 'audit' else 'chain'}.{assertion}",)
    return Job(name, tuple(argv), expect, mode, sum(box_members(d, q, h) for h in hs))


def _fiber_scan(rng):
    jobs = [
        _chain("chain.alpha-id", 2, 2, "alpha,id", (10,), "bounded"),
        _chain("chain.divergence", 2, 2, "alpha,id", (2, 4, 6), "divergence", ("--k", "3")),
        _chain("chain.pool", 2, 2, "alpha,id", (8,), extra=("--workers", "2")),
    ]
    # one job per box side, so each job is short and a pass has many of them
    for label, d, q, coords, hs in _seeded_maps(rng):
        spec = json.dumps(coords, separators=(",", ":"))
        for h in hs:
            jobs.append(_chain(f"chain.{label}.h{h}", d, q, spec, (h,), "bounded"))
            jobs.append(_chain(f"audit.{label}.h{h}", d, q, spec, (h,), "bounded", mode="audit"))
    return jobs


def _correspondence(rng):
    jobs = []
    for d, q, r in ((3, 3, 1), (3, 2, 2), (3, 3, 2), (2, 2, 4), (2, 2, 5), (2, 3, 3), (2, 3, 4)):
        argv = ("verify", "--d", str(d), "--q", str(q), "--radius", str(r), "--assert", "correspondence")
        jobs.append(Job(f"correspondence.d{d}q{q}r{r}", argv,
                        ("PASS correspondence.spheres", "PASS correspondence.isomorphism"), "correspondence", None))
    for d, q, k in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)):
        argv = ("verify", "--d", str(d), "--q", str(q), "--k", str(k), "--assert", "index")
        jobs.append(Job(f"index.d{d}q{q}k{k}", argv, ("PASS index.cosets", "PASS index.coverage"), "index", None))
    return jobs


# Every workload has an odd number of jobs of spread-out sizes, most under
# 100 ms on a 2-vCPU host. A run repeats each job many times, so job_ms.p50
# is a repeat of the middle-sized job and job_ms.tail one of the largest job
# (see run.py). Jobs whose cost moves with the seed (seeded maps, distortion
# samples) are sized away from those two ranks, where a small change of cost
# would swap which job the rank falls on.


def _umap(d, k, side):
    argv = ("qilab", "--mode", "umap", "--d", str(d), "--q", "2", "--k", str(k), "--h", str(side),
            "--assert", "ktoone")
    return Job(f"umap.d{d}k{k}side{side}", argv, ("PASS umap.ktoone",), "umap",
               side ** (d - 1) * 2 ** ((d - 1) * (side - 1)))


def _distortion(rng, d, h, pairs):
    argv = ("qilab", "--mode", "distortion", "--d", str(d), "--q", "2", "--h", str(h),
            "--pairs", str(pairs), "--seed", str(rng.randrange(2 ** 31)))
    return Job(f"distortion.d{d}h{h}", argv, ("distortion: K=",), "distortion", box_members(d, 2, h) + pairs)


def _tilemap(rng):
    return [
        _umap(2, 2, 6),
        _umap(2, 2, 8),
        _umap(2, 3, 6),
        _umap(2, 3, 9),
        _umap(2, 4, 4),
        _umap(2, 4, 8),
        _umap(3, 2, 4),
        _umap(3, 3, 3),
        _distortion(rng, 2, 4, 150),
        _distortion(rng, 2, 5, 150),
        # d=3 pairs are far apart and each new pair shape runs a cold BFS
        _distortion(rng, 3, 2, 5),
    ]


def _graph_export(rng):
    specs = (
        ("ball.d2q2r6.json", ("--d", "2", "--q", "2", "--radius", "6", "--format", "json")),
        ("ball.d2q2r7.dot", ("--d", "2", "--q", "2", "--radius", "7", "--format", "dot")),
        ("ball.d2q2r8.json", ("--d", "2", "--q", "2", "--radius", "8", "--format", "json")),
        ("ball.d3q2r3.json", ("--d", "3", "--q", "2", "--radius", "3", "--format", "json")),
        ("ball.d3q2r4.dot", ("--d", "3", "--q", "2", "--radius", "4", "--format", "dot")),
        ("ball.d2q2k3r2.json", ("--d", "2", "--q", "2", "--k", "3", "--radius", "2", "--format", "json")),
        ("ball.d2q2k2r3.json", ("--d", "2", "--q", "2", "--k", "2", "--radius", "3", "--format", "json")),
        ("ball.d2q2k2r4.dot", ("--d", "2", "--q", "2", "--k", "2", "--radius", "4", "--format", "dot")),
        ("ball.d2q3k2r2.dot", ("--d", "2", "--q", "3", "--k", "2", "--radius", "2", "--format", "dot")),
        ("box.d2q2h6.dot", ("--d", "2", "--q", "2", "--h", "6", "--format", "dot")),
        ("box.d2q2h8.json", ("--d", "2", "--q", "2", "--h", "8", "--format", "json")),
        ("box.d2q3h4.dot", ("--d", "2", "--q", "3", "--h", "4", "--format", "dot")),
        ("box.d3q2h3.dot", ("--d", "3", "--q", "2", "--h", "3", "--format", "dot")),
    )
    return [Job(name, ("graph",) + args, (), "graph", None) for name, args in specs]


_BUILDERS = {
    "fiber_scan": _fiber_scan,
    "correspondence": _correspondence,
    "tilemap": _tilemap,
    "graph_export": _graph_export,
}


def make_jobs(workload: str, seed: int) -> "list[Job]":
    """The workload's jobs for this seed, in the seeded order they run."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# reading a job's output back


def count_items(job: Job, payload: str, summary: str) -> int:
    """Work items the job reports doing, read from its own output."""
    if job.kind == "chain":
        rows = payload.splitlines()[1:]
        return sum(int(row.split(",")[1]) for row in rows)
    if job.kind == "audit":
        rows = json.loads(payload)
        rows = rows if isinstance(rows, list) else [rows]
        return sum(row["box_size"] for row in rows)
    if job.kind == "correspondence":
        m = re.search(r"group spheres \(([\d, ]+)\)", payload)
        return sum(int(x) for x in m.group(1).split(",") if x.strip())
    if job.kind == "index":
        return int(re.search(r"(\d+) membership-positive elements", payload).group(1))
    if job.kind == "umap":
        return int(re.search(r"umap: (\d+) vertices", summary).group(1))
    if job.kind == "distortion":
        d = int(job.argv[job.argv.index("--d") + 1])
        h = int(job.argv[job.argv.index("--h") + 1])
        return box_members(d, 2, h) + json.loads(payload)["pairs"]
    if job.kind == "graph":
        if payload.startswith("{"):
            doc = json.loads(payload)
            return len(doc["vertices"]) + len(doc["edges"])
        return payload.count("[heights=") + payload.count('" -- "')
    raise ValueError(f"unknown job kind {job.kind!r}")


def output_problems(job: Job, payload: str, summary: str) -> "list[str]":
    """Reasons the job's output is wrong, beyond its exit status."""
    text = payload + summary
    problems = [f"missing summary line {want!r}" for want in job.expect if want not in text]
    problems += [f"failed check: {line}" for line in text.splitlines() if line.startswith("FAIL")]
    if job.kind == "graph" and not payload.strip():
        problems.append("empty payload")
    return problems
