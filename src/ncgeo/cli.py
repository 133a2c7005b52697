"""Command line surface: one verb per construction.

Exit codes: 0 all requested checks pass, 1 a check or prerequisite fails,
2 a file cannot be read or written, an input does not parse, or an option
is malformed.  Every refusal is one `error:` line on stderr, written by
`main` (by argparse for an option).

`main` builds its parser once per process and reuses it: argparse keeps
no state between `parse_args` calls, and every call returns a fresh
namespace.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .convert import (
    CliffordModuleData,
    appendix_equivalence_check,
    backward_round_trip,
    poincare_pairing_matrix,
    spinc_to_riemannian,
)
from .examples import EXAMPLE_KINDS, build_example
from .io import (
    FormatError,
    data_to_matrix,
    dict_to_triple,
    int_field,
    load_triple,
    matrix_to_data,
    save_triple,
    triple_to_dict,
)
from .kasparov import BimoduleConnection, product_triple
from .linalg import Tolerance, pull_back
from .modules import ProjectiveModule
from .report import CheckReport
from .triples import run_condition_suite, zeta_diagnostic

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def _tol(args) -> Tolerance:
    return Tolerance(rel=args.tol, rank_cut=args.rank_cut)


def _emit(args, payload: dict, report: CheckReport | None = None):
    header = {"tol": args.tol}
    if args.format == "json":
        doc = {"header": header}
        doc.update(payload)
        if report is not None:
            doc["report"] = report.as_dict()
        text = json.dumps(doc, indent=2)
        print(_NON_JSON.sub(lambda m: m[1] + _JSON_VALUE[m[2]], text))
    else:
        print(f"# tol={args.tol}")
        for key, value in payload.items():
            print(f"{key}: {value}")
        if report is not None:
            print(report.as_text())


# json.dumps writes infinite floats (the tolerance of an information entry)
# and NaN as the non-JSON tokens Infinity and NaN; they become the numbers
# +-1e999, which JSON readers take as infinity or the largest float, and
# null.  With an indent every scalar starts a line or follows ": ", so a
# bare token there is a float, never text inside a quoted string.
_NON_JSON = re.compile(r"(?m)(^ *|: )(-?Infinity|NaN)(?=,?$)")
_JSON_VALUE = {"Infinity": "1e999", "-Infinity": "-1e999", "NaN": "null"}


def _read_input(path, decode, doc=None):
    """decode(doc) for the JSON object doc in a file, read from path unless
    given.  Raises FormatError naming the path when the file cannot be read,
    is not a JSON object, lacks a key or holds a bad encoding."""
    try:
        if doc is None:
            with open(path) as fh:
                doc = json.load(fh)
        if not isinstance(doc, dict):
            raise FormatError("top level is not a JSON object")
        return decode(doc)
    except KeyError as exc:
        msg = f"missing key {exc}"
    except (OSError, TypeError, ValueError) as exc:
        msg = str(exc)
    raise FormatError(f"{path}: {msg}")


def cmd_example(args) -> int:
    # --n parses as a positive integer; matrix_geometry needs one more
    if args.kind == "matrix_geometry" and args.n == 1:
        args.usage_error("argument --n: matrix_geometry needs n >= 2, got 1")
    params = {}
    if args.kind == "two_point":
        params["coupling"] = args.coupling
    else:
        if args.n is not None:
            params["n"] = args.n
        if args.kind == "matrix_geometry":
            params["seed"] = args.seed
    t = build_example(args.kind, **params)
    out = args.output or f"{args.kind}.striple"
    save_triple(out, t)
    _emit(args, {"written": out, "hilbert_dim": t.hilbert_dim})
    return EXIT_OK


def cmd_check(args) -> int:
    t, _ = load_triple(args.path)
    rep = run_condition_suite(t, _tol(args), strict_orientation=args.strict_orientation)
    _emit(args, {"path": args.path}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _bundle_doc(doc):
    """(source triple, module data) bundled by `convert to-riemannian`, or
    None for a document without the bundle.

    The bundle holds the source s_k of the output's cda basis and the
    module basis u; the basis itself is u^* (1_m (x) s_k) u, which the
    backward assembly checks against the output's cda."""
    witness, source_doc = doc.get("witness"), doc.get("source")
    if witness is None or source_doc is None:
        return None
    if not isinstance(witness, dict):
        raise FormatError("witness is not a JSON object")
    if witness.get("c_basis_src") is None or witness.get("module_basis") is None:
        return None
    source = dict_to_triple(source_doc)
    if source.right_action_gens is None:
        raise FormatError("source has no right_action")
    left = [data_to_matrix(w) for w in witness["c_basis_src"]]
    u = data_to_matrix(witness["module_basis"])
    n_src, n_out = source.hilbert_dim, int(doc["hilbert_dim"])
    if not left or any(w.shape != (n_src, n_src) for w in left):
        raise FormatError(f"c_basis_src must be a nonempty list of {n_src} x {n_src} matrices")
    if u.shape[0] % n_src or u.shape[1] != n_out:
        raise FormatError(f"module_basis is {u.shape[0]} x {u.shape[1]}, "
                          f"not (m * {n_src}) x {n_out}")
    return source, CliffordModuleData(
        carrier_dim=n_src,
        left_action=left,
        right_action_gens=source.right_action_gens,
        algebra_basis=list(pull_back(u, left)),
    )


def cmd_convert(args) -> int:
    t, doc = load_triple(args.path)
    tol = _tol(args)
    if args.direction == "to-spinc":
        bundle = _read_input(args.path, _bundle_doc, doc)
        if bundle is None:
            raise ValueError("to-spinc needs a file produced by to-riemannian "
                             "(no bundled witness with c_basis_src and module_basis)")
    try:
        if args.direction == "to-riemannian":
            result = spinc_to_riemannian(t, tol)
            extra = {
                "witness": {
                    "J_kernel": matrix_to_data(result.witness["conjugation_kernel"]),
                    "c_basis_src": [matrix_to_data(w) for w in result.witness["c_basis_src"]],
                    "module_basis": matrix_to_data(result.witness["module_basis"]),
                },
                "source": triple_to_dict(t),
            }
        else:
            source, module = bundle
            result, u, irep = backward_round_trip(t, module, source, tol)
            result.report.extend(irep, prefix="roundtrip:")
            extra = {
                "witness": {
                    "intertwiner": matrix_to_data(u) if u is not None else None,
                    "commutant_part": result.witness["commutant_part"],
                }
            }
    except ValueError as exc:
        print(f"error: conversion prerequisite failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    out = args.output or (args.path + ".converted")
    save_triple(out, result.output, extra=extra)
    _emit(args, {"written": out}, result.report)
    return EXIT_OK if result.report.passed else EXIT_FAIL


def _matrices(value, name: str) -> list:
    """The matrices of a file's field `name`, a list of matrix encodings."""
    if not isinstance(value, list):
        raise FormatError(f"{name} must be a list of matrices")
    return [data_to_matrix(p) for p in value]


def _module_doc(doc):
    size = int_field(doc["size"], "size")
    if size < 1:
        raise FormatError(f"size must be a positive integer, got {size}")
    pot = doc.get("potential")
    if pot is not None and not (isinstance(pot, list) and all(isinstance(row, list) for row in pot)):
        raise FormatError("potential must be a list of rows of matrices")
    return (size, data_to_matrix(doc["projector"]),
            None if pot is None else [_matrices(row, "potential row") for row in pot])


def cmd_product(args) -> int:
    t, _ = load_triple(args.path)
    n, q_big, potential = _read_input(args.module, _module_doc)
    tol = _tol(args)
    right = t.right_algebra(tol)
    if right is None:
        raise ValueError("triple has no right action to twist against")
    conn = BimoduleConnection(ProjectiveModule.from_projector(right, n, q_big), potential)
    out, _, rep = product_triple(t, conn, tol)
    outpath = args.output or (args.path + ".product")
    save_triple(outpath, out)
    _emit(args, {"written": outpath}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_homotopy(args) -> int:
    t, _ = load_triple(args.path)
    rep = appendix_equivalence_check(t, samples=args.samples, tol=_tol(args))
    _emit(args, {"path": args.path}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_pair(args) -> int:
    t, _ = load_triple(args.path)
    left, right = _read_input(args.projectors, lambda doc: tuple(
        _matrices(doc[side], side) for side in ("left", "right")))
    mat, unimodular, rep = poincare_pairing_matrix(t, left, right, _tol(args))
    _emit(args, {"matrix": mat.tolist(), "unimodular": unimodular}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_zeta(args) -> int:
    t, _ = load_triple(args.path)
    table = zeta_diagnostic(t, args.s)
    _emit(args, {"zeta": {str(s): v for s, v in table}})
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _coupling(text: str) -> complex:
    try:
        if (value := complex(text)) and np.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite nonzero complex number, got {text!r}")


def _finite_float(text: str) -> float:
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _positive_float(text: str) -> float:
    if (value := _finite_float(text)) > 0.0:
        return value
    raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Writes a usage error as one line, without the usage block, and reads
    a token that starts with a minus and a digit (-1+2j, -2j, -1e3) as a
    value, not an option; the subcommand parsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ncgeo", description="finite noncommutative geometry workbench")
    ap.add_argument("--tol", type=_positive_float, default=1e-9, help="relative residual tolerance")
    ap.add_argument("--rank-cut", type=_positive_float, default=1e-10, help="numerical rank cutoff")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    g = ap.add_mutually_exclusive_group()
    g.add_argument("--strict-orientation", dest="strict_orientation", action="store_true",
                   default=True, help="require all orientation legs inside the algebra")
    g.add_argument("--generalized-orientation", dest="strict_orientation",
                   action="store_false", help="allow the leading orientation leg outside")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="write a built-in example geometry")
    p.add_argument("kind", choices=EXAMPLE_KINDS)
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--coupling", type=_coupling, default=1.0)
    p.add_argument("--seed", type=_seed, default=0, help="seed for the seeded examples")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_example, usage_error=p.error)

    p = sub.add_parser("check", help="run the condition suite on a triple file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="run a conversion")
    p.add_argument("direction", choices=("to-riemannian", "to-spinc"))
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("product", help="twist a triple by a module file")
    p.add_argument("path")
    p.add_argument("--module", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("homotopy-check", help="verify the doubling equivalences")
    p.add_argument("path")
    p.add_argument("--samples", type=_positive_int, default=10)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("pair", help="index pairing matrix against projector files")
    p.add_argument("path")
    p.add_argument("--projectors", required=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("zeta", help="regularized trace diagnostics")
    p.add_argument("path")
    p.add_argument("-s", "--s-values", dest="s", type=_finite_float, nargs="+",
                   default=(0.0, 1.0, 2.0))
    p.set_defaults(func=cmd_zeta)
    return ap


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
