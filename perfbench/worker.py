"""One timed run of a job list in a fresh interpreter.

Imports the library and builds the CLI parser (the set-up every CLI call
pays), reads ``{"jobs": [...], "trace": bool, "spans_path": str | null,
"outputs": bool}`` as JSON on stdin, runs the jobs in order and prints one
JSON line: wall and CPU time of the job list, peak resident memory, and a
digest and latency per job; with ``outputs`` also the canonical outputs.
Without ``trace``, a speed meter (``meter.py``) runs beside the jobs; its
own time is taken out of every time reported, and times scaled to the
reference host speed are added.  With ``trace`` set, the library is
wrapped first (see ``spans.py``), the per-layer summary is added and the
spans are written to ``spans_path``.

Run by ``run.py`` and ``record.py``; not meant to be called by hand.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time

import jobs  # imports the library
from meter import Meter


def main() -> int:
    request = json.load(sys.stdin)
    jobs.cli.build_parser()
    run = jobs.canonical
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        run = tracer.wrap(0, jobs.canonical)  # span 0 is the job itself

    meter = None if tracer is not None else Meter()
    results, intervals, outputs = [], [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    with meter or contextlib.nullcontext():
        for i, job in enumerate(request["jobs"]):
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            try:
                out = run(job)
            except Exception as exc:  # a failing job is counted, not fatal
                out = f"exception {type(exc).__name__}: {exc}"
            intervals.append((start, time.perf_counter()))
            results.append(jobs.digest(out))
            if request.get("outputs"):
                outputs.append(out)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0

    busy = meter.busy() if meter else 0.0
    latencies = [end - start - (meter.busy(start, end) if meter else 0.0)
                 for start, end in intervals]
    payload = {
        "wall_s": wall - busy,
        "cpu_s": cpu - busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [[d, lat] for d, lat in zip(results, latencies)],
    }
    if meter is not None:
        speed = meter.speed()
        payload["scaled"] = {
            "wall_s": (wall - busy) * speed,
            "cpu_s": (cpu - busy) * speed,
            "latencies": [lat * meter.speed(*span) for lat, span in zip(latencies, intervals)],
            "speed": speed,
            "samples": len(meter.times),
        }
    if request.get("outputs"):
        payload["outputs"] = outputs
    if tracer is not None:
        payload["layers"] = tracer.summary()
        payload["missing_spans"] = tracer.missing
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
