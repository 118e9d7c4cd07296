#!/usr/bin/env python3
"""Benchmark of the k3ade classifier, one working process at a time.

Usage (from the root of a checkout):

    python3 k3bench/run.py --workload table|stream|genus --seed N \
        --seconds S --trace 0|1

The inputs are made from the seed.  The run repeats whole rounds while
the next one is expected to fit in S seconds; each round is one fresh
interpreter (``child.py``) that imports ``k3ade`` from ``src/``, does
the workload's fixed work and exits.  This process only waits while a
round runs, so one process works at a time.  The first round's outputs
are checked by ``checks.py``, which imports nothing from ``k3ade``;
every later round must reproduce them exactly.

With ``--trace 0`` the last line of stdout is a JSON object with the
median over rounds of each end-to-end metric in BENCHMARK.json, times
given at the reference speed of ``reference.py``.  With
``--trace 1`` untraced and traced rounds alternate and the line holds
the per-layer metrics of the traced rounds (medians) and the tracing
overhead.  A record with the environment, every round's figures and
the checks goes to ``k3bench/out/``, and the traced rounds' spans to
``k3bench/out/spans-<workload>-<seed>.tsv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TABLE_TSV = SRC / "k3ade" / "data" / "table1.tsv"

WORKLOADS = ("table", "stream", "genus")

#: table classifies every 20th candidate type (197 types) and stream
#: streams the glue pairs of every 10th (394 types, a superset).  The
#: sets are fixed, so that every seed does the same work; the seed only
#: shuffles the order.  Per-type cost is heavy-tailed (the slowest type
#: takes 4.6 s of the 120 s table), so a seeded choice of types would
#: make the work, and the figures, depend on the seed.
TABLE_STRIDE = 20
STREAM_STRIDE = 10

#: genus asks six questions of each of 1200 distinct discriminant
#: forms of random even lattices, 300 of each rank 3 to 6.
GENUS_FORMS = 1200
GENUS_RANKS = (3, 4, 5, 6)
#: Largest prime allowed in a discriminant order.  fqf.p_part tests
#: primality by trial division up to p, so one large prime would make
#: one decision, and the round, far slower than the rest.
GENUS_MAX_PRIME = 1000

#: A round that runs longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 150


def _largest_prime(n: int) -> int:
    n, p, big = abs(n), 2, 1
    while p * p <= n:
        while n % p == 0:
            big, n = p, n // p
        p += 1
    return max(big, n)


def random_even_grams(rng: random.Random, count: int) -> list:
    """Distinct nondegenerate even symmetric integer matrices, ranks
    cycling through GENUS_RANKS: even diagonal in [-6, 6], off-diagonal
    in [-2, 2], so definite and indefinite lattices both occur."""
    grams: list = []
    seen = set()
    while len(grams) < count:
        n = GENUS_RANKS[len(grams) % len(GENUS_RANKS)]
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        key = tuple(map(tuple, g))
        if key in seen:
            continue
        try:
            det = checks.determinant(g)
        except ValueError:
            continue
        if _largest_prime(det) > GENUS_MAX_PRIME:
            continue
        seen.add(key)
        grams.append(g)
    return grams


def make_inputs(workload: str, seed: int) -> list:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "genus":
        return [{"gram": g,
                 "signatures": [[r, s] for r, s, _ in
                                checks.genus_questions(g)]}
                for g in random_even_grams(rng, GENUS_FORMS)]
    names = checks.candidate_types()
    problems = checks.check_candidates(names)
    if problems:
        raise RuntimeError("; ".join(problems))
    stride = TABLE_STRIDE if workload == "table" else STREAM_STRIDE
    sample = names[::stride]
    rng.shuffle(sample)
    return sample


def operations(workload: str, items: list) -> int:
    """Operations in one round: a type classified or streamed, or one
    existence question."""
    if workload == "genus":
        return sum(len(item["signatures"]) for item in items)
    return len(items)


def check_round(workload: str, items: list, failed: list,
                results) -> list[str]:
    """Independent checks of one round's results."""
    failed = set(failed)
    if workload == "genus":
        return checks.check_genus([it["gram"] for it in items], results,
                                  failed)
    published = checks.load_published(TABLE_TSV)
    names = set(items[k] for k in failed)
    if workload == "table":
        return checks.check_table(items, results, published, names)
    return checks.check_stream(items, results, published, names)


def run_round(in_path: Path, out_path: Path, spans_path: Path | None):
    """One fresh interpreter doing the workload once; returns its
    figures with the set-up time filled in."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(in_path),
           str(out_path)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    with open(out_path) as fh:
        out = json.load(fh)
    out_path.unlink()
    out["raw_setup_s"] = out["ready"] - spawned
    if "slices_s" in out:
        # Set-up cannot be cut into stretches; it is scaled by the
        # median slice of its round.
        out["setup_s"] = reference.scale(out["raw_setup_s"],
                                         out["slices_s"])
        out["slice_median_s"] = statistics.median(out.pop("slices_s"))
    return out


def src_digest() -> str:
    """sha256 over the relative paths and bytes of the files in src/,
    leaving out bytecode caches."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str:
    """The commit of the checkout, read from .git without running git;
    "unknown" outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(child_env: dict) -> dict:
    """What must match before two results may be compared."""
    return {"git_rev": git_rev(), "src_sha256": src_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), **child_env}


def spec_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "k3ade" / "__init__.py").is_file():
        print(f"error: no k3ade package under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    items = make_inputs(args.workload, args.seed)
    in_path = OUT / f"{tag}.in.json"
    with open(in_path, "w") as fh:
        json.dump({"workload": args.workload, "src": str(SRC),
                   "items": items}, fh)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv"

    # With tracing, an untraced and a traced round alternate.
    plan = [False, True] if args.trace else [False]
    rounds: list[tuple[bool, dict]] = []
    problems: list[str] = []
    digest = None
    durations: list[float] = []
    while True:
        for traced in plan:
            began = time.monotonic()
            out = run_round(in_path, OUT / f"{tag}.out.json",
                            spans_path if traced else None)
            durations.append(time.monotonic() - began)
            results = out.pop("results")
            this = hashlib.sha256(
                json.dumps(results, sort_keys=True).encode()).hexdigest()
            if digest is None:
                problems += check_round(args.workload, items,
                                        out["failed"], results)
                digest = this
            elif this != digest:
                problems.append("a round's results differ from the first "
                                "round's")
            rounds.append((traced, out))
        # Start another round only while it is expected to fit.
        elapsed = time.monotonic() - start
        if (elapsed + len(plan) * statistics.median(durations)
                > args.seconds):
            break
    in_path.unlink()

    per_round = operations(args.workload, items)
    attempted = per_round * len(rounds)
    failed = sum(len(out["failed"]) for _, out in rounds)
    plain = [out for traced, out in rounds if not traced]
    if args.trace:
        traced = [out for t, out in rounds if t]
        values = {}
        for m in spec_metrics("per_layer"):
            if m["name"] == "trace.overhead_s":
                values[m["name"]] = (
                    statistics.median(o["raw_wall_s"] for o in traced)
                    - statistics.median(o["raw_wall_s"] for o in plain))
            else:
                values[m["name"]] = statistics.median(
                    o["layers"][m["name"]] for o in traced)
        kind = "per_layer"
    else:
        values = {m["name"]: statistics.median(o[m["name"]] for o in plain)
                  for m in spec_metrics("end_to_end")}
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics(kind)}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(rounds[0][1]["environment"]),
              "problems": problems[:50],
              "rounds": [{k: v for k, v in out.items()
                          if k not in ("environment", "layers")}
                         | {"traced": t} for t, out in rounds],
              "result": result}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    env = record["environment"]
    print(f"{tag}: {len(rounds)} rounds, src {env['src_sha256'][:12]}, "
          f"backend {env['kernels_backend']}, nproc {env['nproc']}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
