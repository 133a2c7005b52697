"""The three benchmark workloads: inputs made from the workload seed, and the ops run on them.

Each workload is a closed loop with one client: an op starts when the
previous one has returned.  An op is one call into ncgeo on a fresh input,
so ``SpectralTripleData._cache`` never carries over from one op to the
next.  Inputs are built from the seed alone; ncgeo sees only the built
triples (or, for the CLI, the argument lists that build them).

* ``suite_h18``: ``run_condition_suite(t, strict_orientation=False)`` on
  matrix_geometry n=3 triples (H=18), the call behind
  ``ncgeo --generalized-orientation check``.  Dominated by
  ``modules.morita_check``; the commutant is a small share.
* ``roundtrip_h18``: one ``round_trip_check`` of a matrix_geometry n=3
  triple, H=18 to the Riemannian shape at H=36 and back.  The only path
  that reaches H=36: Kronecker-SVD commutants inside Tomita conjugation,
  per-element span projections and the backward assembly.
* ``cli_h8``: in-process ``ncgeo.cli.main`` calls through files.  Every
  input goes through ``example``, ``check`` and ``zeta``; matrix_geometry
  n=2 inputs (H=8) also through ``convert to-riemannian`` and
  ``convert to-spinc``.  Small triples (trivial_points, two_point) keep
  fixed per-call costs visible; two_point honestly fails spin^c (exit 1).
"""
from __future__ import annotations

import contextlib
import copy
import io
import random
from dataclasses import dataclass
from typing import Callable

# Entry points are looked up on their modules at call time, so that the
# tracer's wrappers (bound in the ncgeo namespaces) see the outermost call.
from ncgeo import cli, convert, triples
from ncgeo.examples import matrix_geometry

from check import cli_digest, fingerprint, report_digest

WORKLOADS = ("suite_h18", "roundtrip_h18", "cli_h8")
SUITE_TRIPLES = 4
CLI_TRIVIAL_POINTS = range(2, 8)
CLI_TWO_POINT_COUPLINGS = 14
CLI_MATRIX_SEEDS = 8


@dataclass
class Op:
    """One timed call: ``call(*prepare())``; ``observe`` turns its result into
    ``(digest, fingerprint)`` after the clock has stopped."""

    label: str
    ref_key: str
    prepare: Callable[[], tuple]
    call: Callable
    observe: Callable[[object], tuple]


def _seed_list(rng: random.Random, count: int) -> list:
    return [rng.randrange(2**31) for _ in range(count)]


# -- in-process API workloads ------------------------------------------------
def _fresh(template):
    return lambda: (copy.deepcopy(template),)


def _suite_call(t):
    return triples.run_condition_suite(t, strict_orientation=False)


def _round_trip_call(t):
    return convert.round_trip_check(t)


def _observe_report(rep):
    doc = rep.as_dict()
    return report_digest(doc), fingerprint(doc)


def _observe_round_trip(res):
    doc = res.report.as_dict()
    u = res.witness["intertwiner"]
    digest = report_digest(doc)
    digest["intertwiner"] = u is not None
    return digest, fingerprint(doc, u.tobytes() if u is not None else b"")


def _suite_op(n: int, seed: int) -> Op:
    return Op(f"suite matrix_geometry n={n} seed={seed}", f"suite/matrix_geometry/{n}",
              _fresh(matrix_geometry(n, seed)), _suite_call, _observe_report)


def _round_trip_op(n: int, seed: int) -> Op:
    return Op(f"round_trip matrix_geometry n={n} seed={seed}", f"roundtrip/matrix_geometry/{n}",
              _fresh(matrix_geometry(n, seed)), _round_trip_call, _observe_round_trip)


# -- CLI workload ------------------------------------------------------------
def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_ops(workdir, tag: str, kind: str, size, example_args: list,
             with_conversions: bool) -> list:
    """example, check and zeta on one input; optionally both conversions."""
    path = str(workdir / f"{tag}.striple")
    riem, back = path + ".riemannian", path + ".spinc"
    # matrix_geometry is checked as in the suite workload; the small triples
    # use the default (strict) orientation, which they satisfy
    check_flags = ["--generalized-orientation"] if kind == "matrix_geometry" else []
    steps = [
        ("example", ["example", kind, *example_args, "-o", path]),
        ("check", [*check_flags, "check", path]),
        ("zeta", ["zeta", path]),
    ]
    if with_conversions:
        steps += [("to-riemannian", ["convert", "to-riemannian", path, "-o", riem]),
                  ("to-spinc", ["convert", "to-spinc", riem, "-o", back])]
    ops = []
    for verb, args in steps:
        argv = ["--format", "json", *args]

        def observe(result, verb=verb):
            code, stdout = result
            return cli_digest(verb, code, stdout, path), fingerprint(code, stdout)

        ops.append(Op(f"cli {' '.join(args)}", f"cli/{kind}/{size}/{verb}",
                      lambda argv=argv: (argv,), _run_cli, observe))
    return ops


def _cli_inputs(rng: random.Random, workdir):
    ops = []
    for n in CLI_TRIVIAL_POINTS:
        ops += _cli_ops(workdir, f"trivial{n}", "trivial_points", n, ["--n", str(n)], False)
    for i in range(CLI_TWO_POINT_COUPLINGS):
        coupling = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if abs(coupling) < 0.1:  # two_point rejects a zero coupling
            coupling += 1.0
        ops += _cli_ops(workdir, f"two_point{i}", "two_point", "-",
                        ["--coupling", repr(coupling)], False)
    for seed in _seed_list(rng, CLI_MATRIX_SEEDS):
        ops += _cli_ops(workdir, f"matrix{seed}", "matrix_geometry", 2,
                        ["--n", "2", "--seed", str(seed)], True)
    return ops


def build(name: str, seed: int, workdir):
    """(warm-up ops, timed ops) for a workload; everything follows from the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "suite_h18":
        warm = [_suite_op(2, rng.randrange(2**31))]
        return warm, [_suite_op(3, s) for s in _seed_list(rng, SUITE_TRIPLES)]
    if name == "roundtrip_h18":
        warm = [_round_trip_op(2, rng.randrange(2**31))]
        return warm, [_round_trip_op(3, rng.randrange(2**31))]
    if name == "cli_h8":
        warm_seed = rng.randrange(2**31)
        warm = _cli_ops(workdir, "warmup", "matrix_geometry", 2,
                        ["--n", "2", "--seed", str(warm_seed)], True)
        return warm, _cli_inputs(rng, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
