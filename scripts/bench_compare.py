#!/usr/bin/env python3
"""Compare the benchmark of HEAD against a base revision.

    python scripts/bench_compare.py --base REV --out BENCH_13.json

The committed files of ``--base`` and of ``HEAD`` are extracted with
``git archive`` into fresh directories, so the repository gains no
worktree and uncommitted edits are not measured.  For each workload of
``BENCHMARK.json`` the script runs ten alternating pairs of the unchanged
``perfbench/run.py --trace 0`` for the ``run_seconds`` of
``BENCHMARK.json``, one run of each side per pair, with the same seed
inside a pair and seeds 1 to 10 across pairs; the side that runs first
alternates from pair to pair, so a drift of the host's speed favours
neither.

After the pairs, each side makes three traced runs (``--trace 1``,
seeds 1 to 3, the first side alternating as above) per workload.  Each
per-layer metric of a side is the median over its traced runs, so one
noisy run does not move a layer; the two sides are set side by side.

The output JSON holds the environment, and for every workload and
end-to-end metric named in ``BENCHMARK.json`` the per-pair values, the
median and interquartile range of each side, and the number of pairs
whose change value is better than its base value.  Under ``per_layer``
it holds, for every workload, each per-layer metric's median over the
traced runs (``trace_seeds``) with its base value, change value and delta
(change minus base), and the spans each side's tracer did not find in any
of them.  A metric or span that one side has and the other lacks is kept,
with a null value and delta.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a run holds its workers for --seconds, then times its remaining set-up
# probes; past this a run is taken as hung
RUN_TIMEOUT_S = 600
# the gain rule compares ten alternating pairs
PAIRS = 10
# the seeds of the traced runs a side makes per workload
TRACE_SEEDS = (1, 2, 3)


def extract(rev: str, into: Path) -> str:
    """Write the committed files of ``rev`` into a new directory; its full sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as files:
        files.extractall(into, filter="data")
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        favour = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "base": {**spread(base), "values": base},
                     "change": {**spread(change), "values": change},
                     "pairs_favouring_change": favour}
    out["failed"] = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    return out


def layer_deltas(checkouts: dict[str, Path], runs: dict[str, list[dict]], workload: str) -> dict:
    """Per-layer medians of each side's traced runs, over the union of both sides' names."""
    values = {side: {name: statistics.median(r["metrics"][name]["value"] for r in side_runs)
                     for name in set.intersection(*(set(r["metrics"]) for r in side_runs))}
              for side, side_runs in runs.items()}
    units = {name: m["unit"] for side_runs in runs.values() for run in side_runs
             for name, m in run["metrics"].items()}
    metrics = {}
    for name in sorted(units):
        base, change = values["base"].get(name), values["change"].get(name)
        metrics[name] = {"unit": units[name], "base": base, "change": change,
                         "delta": None if base is None or change is None else change - base}
    missing = {}
    for side, checkout in checkouts.items():
        missing[side] = sorted({span for seed in TRACE_SEEDS for span in json.loads(
            (checkout / ".perfbench" / f"result-{workload}-seed{seed}-trace1.json").read_text()
        )["missing_spans"]})
    return {"metrics": metrics, "missing_spans": missing}


def show(value) -> str:
    return f"{'-':>10}" if value is None else f"{value:>10.4g}"


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def loadavg() -> list[str] | None:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--scratch", type=Path, help="parent of the extracted checkouts")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    report = {"base": None, "change": None, "environment": environment(),
              "pairs": PAIRS, "seconds": spec["run_seconds"],
              "seeds": list(range(1, PAIRS + 1)), "trace_seeds": list(TRACE_SEEDS),
              "loadavg_start": loadavg(), "workloads": {}, "per_layer": {}}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-compare-", dir=args.scratch) as tmp:
        sides = {side: Path(tmp) / side for side in ("base", "change")}
        report["base"] = extract(args.base, sides["base"])
        report["change"] = extract("HEAD", sides["change"])
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for seed in report["seeds"]:
                order = ("base", "change") if seed % 2 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed, report["seconds"]))
                print(f"{workload} seed {seed}: wall_s base "
                      f"{runs['base'][-1]['metrics']['wall_s']['value']:.3f} change "
                      f"{runs['change'][-1]['metrics']['wall_s']['value']:.3f}", flush=True)
            report["workloads"][workload] = summarize(spec["end_to_end"], runs)
        for workload in (w["name"] for w in spec["workloads"]):
            traced: dict[str, list[dict]] = {"base": [], "change": []}
            for seed in TRACE_SEEDS:
                for side in ("base", "change") if seed % 2 else ("change", "base"):
                    traced[side].append(run_once(sides[side], workload, seed,
                                                 report["seconds"], trace=1))
            report["per_layer"][workload] = layer_deltas(sides, traced, workload)
    report["loadavg_end"] = loadavg()
    report["elapsed_s"] = round(time.perf_counter() - started, 1)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in report["workloads"].items():
        for name, m in result.items():
            if name != "failed":
                print(f"{workload:<18} {name:<12} base {m['base']['median']:>10.4g} "
                      f"change {m['change']['median']:>10.4g} {m['unit']:<5} "
                      f"{m['pairs_favouring_change']}/{PAIRS} pairs favour the change")
    for workload, layers in report["per_layer"].items():
        # self times one side lacks first, then the largest moves
        moved = sorted((m for m in layers["metrics"].items() if m[0].endswith(".self_s")),
                       key=lambda m: (m[1]["delta"] is not None, -abs(m[1]["delta"] or 0)))
        for name, m in moved[:6]:
            print(f"{workload:<18} {name:<40} base {show(m['base'])} change "
                  f"{show(m['change'])} delta {show(m['delta'])} s")
        for side, spans in layers["missing_spans"].items():
            if spans:
                print(f"{workload:<18} spans not found on the {side} side: {', '.join(spans)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
