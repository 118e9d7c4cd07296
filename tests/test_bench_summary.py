"""Tests of scripts/bench_summary.py on synthetic run records."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")


def write_record(root, workload, seed, wall, sha, rounds=3,
                 raw_setup=(0.3,), slice_median=(0.004,)):
    out = root / "k3bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    metrics = {m: {"value": 1.0, "unit": "s"} for m in METRICS}
    metrics["wall_s"]["value"] = wall
    record = {"workload": workload, "seed": seed,
              "environment": {"src_sha256": sha},
              "rounds": [{"raw_setup_s": raw_setup[k % len(raw_setup)],
                          "slice_median_s":
                              slice_median[k % len(slice_median)],
                          "traced": False} for k in range(rounds)],
              "result": {"correct": True, "attempted": 6, "failed": 0,
                         "metrics": metrics}}
    (out / f"result-{workload}-seed{seed}-trace0.json").write_text(
        json.dumps(record))


def test_medians_pairs_and_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (pw, cw) in enumerate([(0.5, 0.3), (0.6, 0.3), (0.4, 0.45)]):
        write_record(parent, "genus", seed, pw, "aaa")
        write_record(change, "genus", seed, cw, "bbb", rounds=5)
    out = tmp_path / "summary.json"
    assert bench_summary.main([str(parent), str(change),
                               "--out", str(out)]) == 0
    genus = json.loads(out.read_text())["genus"]
    assert genus["parent"]["src_sha256"] == ["aaa"]
    assert genus["change"]["rounds"] == [5, 5, 5]
    assert genus["parent"]["seeds"] == [0, 1, 2]
    wall = genus["comparison"]["wall_s"]
    assert genus["parent"]["metrics"]["wall_s"]["median"] == 0.5
    assert genus["change"]["metrics"]["wall_s"]["median"] == 0.3
    assert (wall["pairs"], wall["change_wins"], wall["parent_wins"]) == (3, 2, 1)
    assert abs(wall["change_over_parent"] + 0.4) < 1e-12
    assert genus["comparison"]["cpu_s"]["change_wins"] == 0


def test_mixed_code_versions_rejected(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, "genus", 1, 0.5, "aaa")
    write_record(change, "genus", 1, 0.3, "bbb")
    write_record(change, "genus", 2, 0.3, "ccc")
    assert bench_summary.main([str(parent), str(change)]) == 2


def test_round_figures_beside_setup(tmp_path):
    # raw_setup_s and slice_median_s are each run's median over its
    # rounds, summarised and paired like the end-to-end metrics.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(3):
        write_record(parent, "table", seed, 0.5, "aaa",
                     raw_setup=(0.30, 0.32, 0.40 + seed),
                     slice_median=(0.0040,))
        write_record(change, "table", seed, 0.3, "bbb", rounds=4,
                     raw_setup=(0.31, 0.29), slice_median=(0.0035,))
    out = tmp_path / "summary.json"
    assert bench_summary.main([str(parent), str(change),
                               "--out", str(out)]) == 0
    table = json.loads(out.read_text())["table"]
    raw = table["parent"]["metrics"]["raw_setup_s"]
    assert raw["runs"] == [0.32, 0.32, 0.32]
    assert table["change"]["metrics"]["raw_setup_s"]["median"] == 0.30
    assert table["change"]["metrics"]["slice_median_s"]["runs"] == \
        [0.0035] * 3
    assert set(table["parent"]["metrics"]) == set(METRICS) | {
        "raw_setup_s", "slice_median_s"}
    verdict = table["comparison"]["slice_median_s"]
    assert verdict["bound"] is None
    assert (verdict["pairs"], verdict["change_wins"]) == (3, 3)
    assert abs(verdict["change_over_parent"] + 0.125) < 1e-12
    assert table["comparison"]["raw_setup_s"]["change_wins"] == 3
