"""Run one benchmark job and reduce its output to a comparable digest.

A job is a plain dict taken from ``pools.json``.  Its ``kind`` says how it
runs:

- ``cli``: ``ncspheres.cli.main(argv)`` in-process, stdout and stderr
  captured.  The digest covers the exit code and the exact stdout bytes.
- ``cli_numeric``: the same, for ``check`` subcommands whose JSON carries
  floating-point residuals and model data.  Floats are masked before
  hashing, so the digest covers the exact verdicts (``ok``, pass counts,
  the violated relations) and nothing that depends on rounding.
- ``mc``: a ``check --op mc_moment`` estimate next to the exact
  ``moment`` of the same word.  The digest covers the exact moment's
  bytes and whether the estimate lies within five standard errors of it.
- ``tensor``, ``compose``, ``adjoint``: functoriality identities of the
  maps ``T_p``, through the public library.  The digest covers the
  verdict and the sizes of the maps compared.

Every library function is looked up on its module at call time, so the
tracer's wrappers see the calls.  Importing this module imports the
library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

from ncspheres import cli, partitions, tensors


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
    return code, out.getvalue()


def _mask_floats(value):
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, list):
        return [_mask_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _mask_floats(v) for k, v in value.items()}
    return value


def _cli(job) -> str:
    code, out = run_cli(job["argv"])
    return f"{code}\n{out}"


def _cli_numeric(job) -> str:
    code, out = run_cli(job["argv"])
    if code != 0:
        return f"{code}\n{out}"
    return f"{code}\n" + json.dumps(_mask_floats(json.loads(out)), sort_keys=True)


def _mc(job) -> str:
    code_mc, out_mc = run_cli(job["argv"])
    code_ex, out_ex = run_cli(job["exact_argv"])
    if code_mc != 0 or code_ex != 0:
        return f"{code_mc} {code_ex}\n{out_ex}"
    got = json.loads(out_mc)
    exact = float(Fraction(json.loads(out_ex)["moment"]))
    agree = abs(got["estimate"] - exact) <= 5 * got["se"] + 1e-12
    return f"0 0 agree={agree}\n{out_ex}"


def _diagrams(job):
    p = partitions.parse_partition(job["p"])
    q = partitions.parse_partition(job["q"]) if "q" in job else None
    return p, q, job["n"], job["twisted"]


def _tensor(job) -> str:
    p, q, n, tw = _diagrams(job)
    lhs = tensors.t_map(p, n, tw).tensor(tensors.t_map(q, n, tw))
    rhs = tensors.t_map(tensors.tensor_concat(p, q), n, tw)
    return f"{lhs == rhs} {len(lhs.entries)} {len(rhs.entries)}"


def _compose(job) -> str:
    p, q, n, tw = _diagrams(job)
    comp, loops = tensors.compose(p, q)
    prod = tensors.t_map(q, n, tw).matmul(tensors.t_map(p, n, tw))
    target = tensors.t_map(comp, n, tw)
    factor = n ** loops
    ok = prod == {key: factor * c for key, c in target.entries.items()}
    return f"{ok} {loops} {len(prod)} {len(target.entries)}"


def _adjoint(job) -> str:
    p, _, n, tw = _diagrams(job)
    lhs = tensors.t_map(p, n, tw).adjoint()
    rhs = tensors.t_map(tensors.involution(p), n, tw)
    return f"{lhs == rhs} {len(lhs.entries)}"


KINDS = {
    "cli": _cli,
    "cli_numeric": _cli_numeric,
    "mc": _mc,
    "tensor": _tensor,
    "compose": _compose,
    "adjoint": _adjoint,
}


def canonical(job) -> str:
    """The job's canonical output; raises what the library raises."""
    return KINDS[job["kind"]](job)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]
