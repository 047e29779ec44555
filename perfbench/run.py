"""Benchmark of the ncspheres library: seeded workloads, end-to-end metrics
and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  A run draws the workload's job list from
its pool in ``pools.json`` with ``--seed``, then runs the whole job list
in fresh worker processes (``worker.py``), one at a time, until
``--seconds`` have passed.  Before each worker it times the set-up of a
fresh interpreter.  End-to-end times are scaled to a reference host speed
by a speed meter that runs in the timed process (see ``meter.py``).
Every job's output is checked against the digest recorded for it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, from untraced workers; with ``--trace 1`` each
untraced worker is followed by a traced one, and the metrics are the
per-layer ones plus the tracing overhead.  Lines before it give the
environment and a readable table.  Spans and the full result go to
``.perfbench/`` in the checkout.

``--smoke`` runs every workload once at its smallest job list, traced and
untraced, and checks that every metric named in ``BENCHMARK.json`` prints
with its unit and that no job failed.

Exit status: 0 when a result was printed (``correct`` may still be false),
1 when a smoke check failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
MIN_PROBES = 9  # set-up probes; one runs before every worker
# set-up: the import and parser every CLI call pays, timed with the speed
# meter running; the probe prints the meter's own seconds and the host speed
SETUP_CODE = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import meter\n"
              "with meter.Meter() as m:\n    import ncspheres.cli as c; c.build_parser()\n"
              "print(m.busy(), m.speed())\n")
WORKER_TIMEOUT_S = 170
# traced wall time that layer, benchmark and hook self times must cover
ACCOUNTED_MIN = 0.9


class BenchError(Exception):
    """The benchmark itself could not run."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # cache bytecode in the checkout, so set-up is the import a user of an
    # installed package pays, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe(env) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import the library and build the
    parser, without the meter's own time, as measured and as scaled."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"probe failed; is the library under {ROOT / 'src'}?\n"
                         + proc.stderr[-2000:])
    busy, speed = map(float, proc.stdout.split())
    return elapsed - busy, (elapsed - busy) * speed


def run_worker(env, jobs, trace=False, spans_path=None, outputs=False) -> dict:
    request = {"jobs": jobs, "trace": trace, "outputs": outputs,
               "spans_path": str(spans_path) if spans_path else None}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                          env=env, input=json.dumps(request), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pools() -> dict:
    return json.loads((HERE / "pools.json").read_text())["workloads"]


def job_list(categories, seed: int, smallest: bool = False) -> list[dict]:
    """The seed's jobs: from each category, ranked by recorded cost and cut
    into ``pick`` equal strata, one job per stratum.  ``smallest`` takes
    the cheapest job of each category instead."""
    rng = random.Random(seed)
    jobs = []
    for cat in categories:
        ranked = sorted(cat["jobs"], key=lambda j: (j["cost_s"], j["id"]))
        if smallest:
            jobs.append(ranked[0])
            continue
        k = cat["pick"]
        for s in range(k):
            jobs.append(rng.choice(ranked[s * len(ranked) // k:(s + 1) * len(ranked) // k]))
    rng.shuffle(jobs)
    return jobs


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "loadavg": loadavg}


def count_failures(jobs, reps) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    bad: list[str] = []
    for rep in reps:
        for job, (got, _) in zip(jobs, rep["jobs"]):
            attempted += 1
            if got != job["digest"]:
                failed += 1
                bad.append(job["id"])
    return attempted, failed, bad


def end_to_end(setup, reps, attempted, failed) -> dict[str, tuple[float, str]]:
    """Times are scaled to the reference speed (see ``meter.py``)."""
    scaled = [r["scaled"] for r in reps]
    latencies = [lat for s in scaled for lat in s["latencies"]]
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (statistics.median(s["wall_s"] for s in scaled), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in scaled), "s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "pass_frac": ((attempted - failed) / attempted, "frac"),
    }


def per_layer(plain, traced) -> dict[str, tuple[float, str]]:
    out = {}
    for name, unit in spans.metric_units():
        out[name] = (statistics.median(r["layers"][name] for r in traced), unit)
    wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead"] = (wall / statistics.median(r["wall_s"] for r in plain), "x")
    out["trace.accounted_frac"] = (statistics.median(accounted(r) for r in traced), "frac")
    return out


def accounted(rep) -> float:
    """Share of a traced worker's wall time that the self times cover."""
    layers = rep["layers"]
    covered = sum(v for k, v in layers.items() if k.endswith("self_s"))
    return (covered + layers["trace.hook_s"]) / rep["wall_s"]


def accounted_ok(result) -> bool:
    return ACCOUNTED_MIN <= result["metrics"]["trace.accounted_frac"]["value"] <= 1 + 1e-9


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smallest: bool = False) -> tuple[dict, dict]:
    categories = load_pools()[workload]
    jobs = job_list(categories, seed, smallest)
    env = worker_env()
    info = environment(workload, seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.csv"
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        setup.append(probe(env))
        plain.append(run_worker(env, jobs))
        if trace:
            traced.append(run_worker(env, jobs, True, spans_path))
        elapsed = time.perf_counter() - start
        # stop unless one more worker (two for an untraced run) fits in time
        if elapsed + elapsed / len(plain) > seconds and len(plain) >= 2 - trace:
            break
    while len(setup) < MIN_PROBES:
        setup.append(probe(env))
    attempted, failed, bad = count_failures(jobs, plain + traced)
    metrics = (per_layer(plain, traced) if trace
               else end_to_end(setup, plain, attempted, failed))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"env": info, "jobs": len(jobs), "reps": len(plain),
              "speed": [r["scaled"]["speed"] for r in plain],
              "setup_s": [raw for raw, _ in setup],
              "wall_s": [r["wall_s"] for r in plain],
              "traced_wall_s": [r["wall_s"] for r in traced],
              "missing_spans": sorted({m for r in traced for m in r["missing_spans"]}),
              "failed_jobs": sorted(set(bad)), "result": result}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1))
    return result, detail


def print_table(result, detail):
    print("env " + json.dumps(detail["env"]))
    print(f"{detail['jobs']} jobs x {detail['reps']} runs; "
          f"failed {result['failed']} of {result['attempted']}; host speed "
          f"{min(detail['speed']):.4f} to {max(detail['speed']):.4f} of the reference")
    for name in detail["failed_jobs"][:10]:
        print(f"  mismatch: {name}", file=sys.stderr)
    if detail["missing_spans"]:
        print("spans not found: " + ", ".join(detail["missing_spans"]), file=sys.stderr)
    if "trace.accounted_frac" in result["metrics"] and not accounted_ok(result):
        print("self times do not account for traced wall time", file=sys.stderr)
    metrics = result["metrics"]
    rows = sorted(metrics.items(), key=lambda kv: (not kv[0].endswith("self_s"),
                                                   -kv[1]["value"], kv[0]))
    for name, m in rows:
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")


def smoke() -> int:
    """Every workload at its smallest job list, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        result, detail = measure(workload, 0, 0, True, smallest=True)
        untraced, _ = measure(workload, 0, 0, False, smallest=True)
        for trace, res in ((False, untraced), (True, result)):
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} != {want[trace]}")
            if res["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {res['failed']} jobs failed")
        if not accounted_ok(result):
            problems.append(f"{workload}: self times do not account for traced wall time")
        print(f"{workload}: {detail['jobs']} jobs, wall "
              f"{untraced['metrics']['wall_s']['value']:.3f} s, traced overhead "
              f"{result['metrics']['trace.overhead']['value']:.2f}x")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "ncspheres").is_dir():
            raise BenchError(f"no library source at {ROOT / 'src' / 'ncspheres'}")
        if args.smoke:
            return smoke()
        if args.workload not in load_pools():
            ap.error(f"--workload must be one of {sorted(load_pools())}")
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_table(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
