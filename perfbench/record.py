"""Build the job pools and record every job's reference output.

    python3 perfbench/record.py [--workload NAME]

Each workload is a list of categories; each category has a pool of jobs
and the number ``pick`` that a seeded run draws from it (see
``run.job_list``).  Pools are generated here from a fixed seed, and every
job is run in three workers, which must agree on its output.
``pools.json`` stores each job with the digest of its canonical output and
its median cost on the recording machine, which only ranks jobs into
strata.  ``--workload`` re-records one workload and leaves the strata, and
so the job lists, of the others as they were.

The digests are the benchmark's correctness reference: a later change to
the library must reproduce them byte for byte.  Re-record only to add or
change a pool, on a commit whose outputs are known to be right, never to
accept an output that changed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import statistics
import sys

import run

POOL_SEED = 20141224

GROUPS = ("o_n", "o_n_star", "o_n_plus", "bar_o_n", "bar_o_n_star",
          "u_n", "u_n_star2", "u_n_plus", "bar_u_n", "bar_u_n_star2")
SPHERES = ("s_r", "s_r_star", "s_r_plus", "bar_s_r", "bar_s_r_star",
           "s_c", "s_c_star2", "s_c_plus", "bar_s_c", "bar_s_c_star2")
REGIMES = ("real", "complex", "real_twisted", "complex_twisted")
# relation_group cases left out for run length: the complex spheres at k=6
# take 3 to 63 s each, the others 0.75 to 1.6 s
SLOW_GROUPS = {("s_c", 6), ("bar_s_c", 6), ("s_c_star2", 6), ("bar_s_c_star2", 6),
               ("s_c", 5), ("bar_s_c", 5), ("bar_s_r", 6)}
# relation_group cases drawn in every job list: alone in a worker, this one
# peaks at 44 MB and every other relation_engine job at 35 MB at most, so
# drawn by the seed it would make peak_rss_mb jump between seeds
BIG_GROUPS = {("s_c_plus", 6)}
COST_RUNS = 3


def cli(*argv, kind="cli") -> dict:
    argv = [str(a) for a in argv]
    return {"id": " ".join(argv), "kind": kind, "argv": argv}


def category(name, pick, jobs, expect=None, bands=()) -> dict:
    """``expect`` keeps only jobs with that CLI exit code.  ``bands`` is a
    list of (count, pick), from the dearest jobs down: after recording, the
    ``count`` dearest jobs become a sub-category with its own ``pick``, and
    so on; the rest keep ``pick``.  A few slow jobs are then drawn only from
    among themselves, and the seed moves the total cost little."""
    return {"category": name, "pick": pick, "jobs": jobs, "expect": expect, "bands": bands}


def weingarten_large(rng):
    """The largest Gram matrices a run can repeat often enough to be steady:
    the 42 NC2 pairings at k=10 and the 24-pairing sets at k=8.  Twisted
    groups and sets that color the same pairings share Gram matrices, so
    every set gets its own values of N and no two jobs share a matrix.  The
    105-pairing ``o_n`` k=8 takes 7 to 10 s per solve; with two per run its
    ten-seed spreads exceeded the bounds, so it is left out."""
    def wg(group, n, k=None, alpha=None):
        size = ["--k", k] if alpha is None else ["--alpha", alpha]
        return cli("weingarten", "--group", group, *size, "--n", n)

    nc10 = ([wg("o_n_plus", n, k=10) for n in range(2, 6)]
            + [wg("u_n_plus", n, alpha="1*1*1*1*1*") for n in range(6, 10)]
            + [wg("u_n_plus", n, alpha="*1*1*1*1*1") for n in range(10, 14)])
    p24 = ([wg("o_n_star", n, k=8) for n in range(4, 8)]
           + [wg("u_n", n, alpha="1111****") for n in range(8, 12)]
           + [wg("u_n", n, alpha="11**11**") for n in range(12, 16)])
    singular = ([wg("o_n_star", n, k=8) for n in (2, 3)]
                + [wg("u_n", n, alpha="1*1*1*1*") for n in (2, 3)])
    return [
        category("nc2/k10", 8, nc10, expect=0),
        category("p24/k8", 3, p24, expect=0),
        category("p24/k8/singular", 1, singular, expect=1),
    ]


def _balanced_alpha(rng, d):
    word = ["1"] * (d // 2) + ["*"] * (d // 2)
    rng.shuffle(word)
    return "".join(word)


def _tuple(rng, d, n):
    return ",".join(str(rng.randint(1, n)) for _ in range(d))


def moment_queries(rng):
    cats = []
    for d in (4, 6):
        for n in range(2, 6):
            for g, s in zip(GROUPS, SPHERES):
                complex_ = g.startswith(("u_", "bar_u"))
                moments, traces = [], []
                for _ in range(6):
                    alpha = ["--alpha", _balanced_alpha(rng, d)] if complex_ else []
                    moments.append(cli("moment", "--group", g, "--n", n, "--i", _tuple(rng, d, n),
                                       "--j", _tuple(rng, d, n), *alpha))
                    alpha = ["--alpha", _balanced_alpha(rng, d)] if complex_ else []
                    traces.append(cli("trace", "--sphere", s, "--n", n,
                                      "--i", _tuple(rng, d, n), *alpha))
                cats.append(category(f"moment/d{d}/{g}/N{n}", 2, moments))
                cats.append(category(f"trace/d{d}/{s}/N{n}", 2, traces))
    for n in (2, 3):
        ranks = [cli("rank", "--sphere", s, "--n", n, *conj)
                 for s in SPHERES for conj in ([], ["--conjugated"])]
        cats.append(category(f"rank/N{n}", 5, ranks))
    mc = {}
    for n, d in ((2, 2), (2, 4), (3, 2), (3, 4)):
        for _ in range(2):
            i, j = _tuple(rng, d, n), _tuple(rng, d, n)
            job = cli("check", "--op", "mc_moment", "--mc-group", "orthogonal", "--n", n,
                      "--i", i, "--j", j, "--samples", 20000, "--seed", rng.randint(0, 999),
                      kind="mc")
            job["exact_argv"] = ["moment", "--group", "o_n", "--n", str(n), "--i", i, "--j", j]
            mc.setdefault(("orthogonal", n), []).append(job)
    for n, d in ((2, 2), (2, 4)):
        for _ in range(2):
            i, j, a = _tuple(rng, d, n), _tuple(rng, d, n), _balanced_alpha(rng, d)
            job = cli("check", "--op", "mc_moment", "--mc-group", "unitary", "--n", n,
                      "--i", i, "--j", j, "--alpha", a, "--samples", 20000,
                      "--seed", rng.randint(0, 999), kind="mc")
            job["exact_argv"] = ["moment", "--group", "u_n", "--n", str(n), "--i", i,
                                 "--j", j, "--alpha", a]
            mc.setdefault(("unitary", n), []).append(job)
    # one category per sampler: a worker's peak memory is 39, 42 or 43.5 MB
    # after an orthogonal N=2, orthogonal N=3 or unitary N=2 job, so every
    # job list draws one of each and peak_rss_mb does not move with the seed
    for (group, n), jobs in mc.items():
        cats.append(category(f"mc_moment/{group}/N{n}", 1, jobs))
    return cats


def _lib(kind, n, twisted, p, q=None) -> dict:
    job = {"id": f"{kind} {p} {q or ''} N{n} {'twisted' if twisted else 'plain'}",
           "kind": kind, "n": n, "twisted": twisted, "p": p}
    if q is not None:
        job["q"] = q
    return job


def diagram_maps(rng):
    from ncspheres import PartitionClass, category_pairings, enumerate_partitions, group_by_name

    rows = [(k, l) for k in range(4) for l in range(4) if (k + l) % 2 == 0 and k + l]
    pool = {kl: [p.literal() for p in enumerate_partitions(PartitionClass.P_EVEN, *kl)]
            for kl in rows}
    flat = [p for kl in rows for p in pool[kl]]
    composable = [(p, q) for (k, l) in rows for (l2, m) in rows if l2 == l
                  for p in pool[(k, l)] for q in pool[(l2, m)]]
    cats = []
    for n in (2, 3):
        for tw in (False, True):
            tag = f"N{n}/{'twisted' if tw else 'plain'}"
            pairs = rng.sample([(p, q) for p in flat for q in flat], 300)
            cats.append(category(f"tensor/{tag}", 100,
                                 [_lib("tensor", n, tw, p, q) for p, q in pairs]))
            pairs = rng.sample(composable, 300)
            cats.append(category(f"compose/{tag}", 60,
                                 [_lib("compose", n, tw, p, q) for p, q in pairs]))
            cats.append(category(f"adjoint/{tag}", 20, [_lib("adjoint", n, tw, p) for p in flat]))
    for n in (2, 3):
        checks = [cli("check", "--op", "intertwiner", "--partition", p, *tw, "--matrix", "signed",
                      "--n", n, kind="cli_numeric")
                  for p in flat for tw in ([], ["--twisted"])]
        checks += [cli("check", "--op", "intertwiner", "--partition", p, *tw, "--matrix", "haar",
                       "--samples", 4, "--seed", rng.randint(0, 999), "--n", n, kind="cli_numeric")
                   for p in rng.sample(flat, 12) for tw in ([], ["--twisted"])]
        cats.append(category(f"intertwiner/N{n}", 20, checks))
    fixed = []
    for s in SPHERES:
        group = group_by_name(s.replace("s_r", "o_n").replace("s_c", "u_n"))
        twisted = s.startswith("bar_")
        for l, alphas in ((2, ("1*",)), (4, ("11**", "1*1*")), (6, ("111***", "1*1*1*"))):
            for alpha in alphas if "s_c" in s else (None,):
                for p in category_pairings(group, alpha=alpha, k=l):
                    model = "twisted_point" if twisted else "classical_point"
                    fixed.append(cli("check", "--op", "fixed_vector", "--sphere", s, "--partition",
                                     p.literal(), *(["--twisted"] if twisted else []),
                                     "--model", model,
                                     "--seed", rng.randint(0, 999), "--n", 3, kind="cli_numeric"))
    cats.append(category("fixed_vector/N3", 40, fixed))
    rel = [cli("check", "--op", "relations", "--sphere", s, "--model", m, "--n", n,
               "--seed", rng.randint(0, 999), kind="cli_numeric")
           for s in SPHERES for m in ("clifford", "antidiagonal") for n in (2, 3)]
    cats.append(category("relations", 20, rel))
    return cats


def relation_engine(rng):
    perms = ["".join(map(str, p)) for k in (3, 4)
             for p in itertools.permutations(range(1, k + 1)) if p != tuple(range(1, k + 1))]
    pairs = rng.sample(list(itertools.combinations(perms, 2)), 30)
    cats = []
    for regime in REGIMES:
        # the real regimes are fast; more of their jobs, and of reduce, keep
        # the median job latency inside one cluster of costs
        light = 5 if regime.startswith("complex") else 12
        cats.append(category(f"classify/{regime}/single", light,
                             [cli("classify", "--perm", p, "--regime", regime) for p in perms],
                             bands=[(2, 1), (3, 1)]))
        cats.append(category(f"classify/{regime}/pair", light - 1,
                             [cli("classify", "--perm", p, "--perm", q, "--regime", regime)
                              for p, q in pairs]))
    cats.append(category("saturate/sphere", 3, [cli("saturate", "--sphere", s) for s in SPHERES],
                         bands=[(4, 1)]))
    reduce_jobs = []
    for expr in ("(ab-ba)^2", "(ab+ba)^2", "(abc-cba)^2", "(abc+cba)^2"):
        for p in ("312", "231", "321", "21"):
            for regime in ("real", "real_twisted"):
                reduce_jobs.append(cli("reduce", "--expr", expr, "--perm", p, "--regime", regime))
    for expr in ("(ab*-b*a)^2", "(ab*+b*a)^2", "(ab-ba)^2"):
        for s in SPHERES:
            reduce_jobs.append(cli("reduce", "--expr", expr, "--sphere", s))
    cats.append(category("reduce", 40, reduce_jobs))
    group_jobs = [cli("saturate", "--sphere", s, "--k", k)
                  for s in SPHERES for k in (5, 6) if (s, k) not in SLOW_GROUPS | BIG_GROUPS]
    cats.append(category("relation_group", 2, group_jobs, bands=[(4, 2)]))
    cats.append(category("relation_group/big", 1,
                         [cli("saturate", "--sphere", s, "--k", k) for s, k in BIG_GROUPS]))
    return cats


WORKLOADS = {
    "weingarten_large": weingarten_large,
    "moment_queries": moment_queries,
    "diagram_maps": diagram_maps,
    "relation_engine": relation_engine,
}


def record(name: str) -> list[dict]:
    cats = WORKLOADS[name](random.Random(f"{POOL_SEED}/{name}"))
    env = run.worker_env()
    jobs = [job for cat in cats for job in cat["jobs"]]
    reps = [run.run_worker(env, jobs, outputs=True) for _ in range(COST_RUNS)]
    outputs = dict(zip((j["id"] for j in jobs), reps[0]["outputs"]))
    for i, job in enumerate(jobs):
        digests = {rep["jobs"][i][0] for rep in reps}
        if len(digests) != 1:
            raise SystemExit(f"{name}: {job['id']}: output differs between runs")
        cost = statistics.median(rep["jobs"][i][1] for rep in reps)
        job["digest"], job["cost_s"] = digests.pop(), float(f"{cost:.3g}")
    kept = []
    for cat in cats:
        good = []
        for job in cat["jobs"]:
            out = outputs[job["id"]]
            if out.startswith("exception"):
                raise SystemExit(f"{name}: {job['id']} raised: {out[:300]}")
            if job["kind"] == "mc" and "agree=True" not in out:
                raise SystemExit(f"{name}: {job['id']}: estimate far from the exact moment")
            if cat["expect"] is None or out.split(None, 1)[0] == str(cat["expect"]):
                good.append(job)
        good.sort(key=lambda j: -j["cost_s"])
        bands = [*cat["bands"], (len(good), cat["pick"])]
        start = 0
        for i, (count, pick) in enumerate(bands):
            band = good[start:start + count]
            start += count
            label = cat["category"] + (f"/top{i}" if i < len(bands) - 1 else "")
            if len(band) < pick:
                raise SystemExit(f"{name}/{label}: {len(band)} jobs for pick {pick}")
            kept.append({"category": label, "pick": pick, "jobs": band})
            print(f"{name}/{label}: {len(band)} jobs, "
                  f"cost {sum(j['cost_s'] for j in band):.2f} s", file=sys.stderr)
    return kept


def dump(data: dict) -> str:
    """``pools.json`` text with one job per line, so a re-record diffs by job."""
    lines = ["{"]
    for key, value in data.items():
        if key != "workloads":
            lines.append(f"{json.dumps(key)}: {json.dumps(value)},")
    lines.append('"workloads": {')
    for w, (name, cats) in enumerate(data["workloads"].items()):
        lines.append(f"{json.dumps(name)}: [")
        for c, cat in enumerate(cats):
            lines.append(f'{{"category": {json.dumps(cat["category"])}, "pick": {cat["pick"]}, '
                         '"jobs": [')
            lines.append(",\n".join(json.dumps(job) for job in cat["jobs"]))
            lines.append("]}" + ("," if c < len(cats) - 1 else ""))
        lines.append("]" + ("," if w < len(data["workloads"]) - 1 else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    path = run.HERE / "pools.json"
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    data.update({"pool_seed": POOL_SEED, "recorded_at": run.environment(None, None)})
    for name in [args.workload] if args.workload else WORKLOADS:
        data["workloads"][name] = record(name)
    path.write_text(dump(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
