"""Summarise benchmark runs of a parent checkout and of a change.

Usage:
    python scripts/bench_summary.py PARENT_ROOT CHANGE_ROOT [--out FILE]

Each root is a checkout in which ``k3bench/run.py --trace 0`` has been
run; its records are read from ``k3bench/out/result-*-trace0.json``.
For every workload and side the summary gives the seeds, the number of
rounds of each run, the ``src_sha256`` of the code measured, whether
every run passed its output checks, and for each end-to-end metric of
``BENCHMARK.json`` the value of each run, their median and quartiles.
Next to ``setup_s`` stand two figures of the rounds, each run's value
being its median over its rounds: ``raw_setup_s``, the set-up as measured,
and ``slice_median_s``, the median reference slice by which the set-up
is scaled into ``setup_s``.  A work that gets shorter has fewer and
shorter slices, so ``setup_s`` can move while ``raw_setup_s`` stays.
Where both sides ran a seed, the pair counts as a win for the side whose
value is better.  The relative change of the medians is given next to
the metric's bound (none for the round figures).

Exits 2 when a side has no records or its records come from more than
one version of the code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Figures read from every round of a record rather than from its result.
ROUND_FIGURES = [{"name": name, "unit": "s", "better": "lower", "bound": None}
                 for name in ("raw_setup_s", "slice_median_s")]


def load_runs(root: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record of the untraced runs under root."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted((root / "k3bench" / "out").glob("result-*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def run_value(record: dict, name: str) -> float:
    """A run's value of a metric: its end-to-end figure, or the median
    over its rounds of a round figure."""
    if name in record["result"]["metrics"]:
        return record["result"]["metrics"][name]["value"]
    return statistics.median(r[name] for r in record["rounds"])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def side_summary(records: dict[int, dict], metrics: list[dict]) -> dict:
    seeds = sorted(records)
    shas = sorted({records[s]["environment"]["src_sha256"] for s in seeds})
    out = {
        "src_sha256": shas,
        "seeds": seeds,
        "rounds": [len(records[s]["rounds"]) for s in seeds],
        "all_correct": all(records[s]["result"]["correct"] for s in seeds),
        "failed": sum(records[s]["result"]["failed"] for s in seeds),
        "attempted": sum(records[s]["result"]["attempted"] for s in seeds),
        "metrics": {},
    }
    for m in metrics:
        values = [run_value(records[s], m["name"]) for s in seeds]
        q1, median, q3 = quartiles(values)
        out["metrics"][m["name"]] = {"unit": m["unit"], "runs": values,
                                     "median": median, "q1": q1, "q3": q3}
    return out


def compare(parent: dict[int, dict], change: dict[int, dict],
            metrics: list[dict]) -> dict:
    p_side = side_summary(parent, metrics)
    c_side = side_summary(change, metrics)
    shared = sorted(set(parent) & set(change))
    verdicts = {}
    for m in metrics:
        name = m["name"]
        sign = 1 if m["better"] == "lower" else -1
        wins = losses = 0
        for seed in shared:
            pv = run_value(parent[seed], name)
            cv = run_value(change[seed], name)
            wins += sign * (pv - cv) > 0
            losses += sign * (cv - pv) > 0
        p, c = p_side["metrics"][name], c_side["metrics"][name]
        verdicts[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "change_over_parent": c["median"] / p["median"] - 1,
            "parent_iqr": p["q3"] - p["q1"],
            "pairs": len(shared),
            "change_wins": wins,
            "parent_wins": losses,
        }
    return {"parent": p_side, "change": c_side, "comparison": verdicts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--out", type=Path, help="write here, not to stdout")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics += ROUND_FIGURES
    parent, change = load_runs(args.parent), load_runs(args.change)
    summary = {}
    for workload in sorted(set(parent) | set(change)):
        sides = {"parent": parent.get(workload, {}),
                 "change": change.get(workload, {})}
        for side, records in sides.items():
            shas = {r["environment"]["src_sha256"] for r in records.values()}
            if len(shas) != 1:
                print(f"error: {workload}: {side} has records of "
                      f"{len(shas)} code versions", file=sys.stderr)
                return 2
        summary[workload] = compare(sides["parent"], sides["change"],
                                    metrics)
    if not summary:
        print("error: no records found", file=sys.stderr)
        return 2
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
