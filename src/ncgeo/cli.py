"""Command line surface: one verb per construction.

Exit codes: 0 all requested checks pass, 1 a check or prerequisite fails,
2 the input file cannot be parsed.
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
    double_odd_triple,
    poincare_pairing_matrix,
    spinc_to_riemannian,
)
from .examples import EXAMPLE_KINDS, build_example
from .io import (
    FormatError,
    data_to_matrix,
    dict_to_triple,
    load_triple,
    matrix_to_data,
    save_triple,
    triple_to_dict,
    vector_to_data,
)
from .kasparov import BimoduleConnection, product_triple
from .linalg import Tolerance
from .modules import ProjectiveModule
from .report import CheckReport
from .triples import run_condition_suite, zeta_diagnostic

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def _tol(args) -> Tolerance:
    return Tolerance(rel=args.tol, rank_cut=args.rank_cut)


def _emit(args, payload: dict, report: CheckReport | None = None):
    header = {"seed": args.seed, "tol": args.tol}
    if args.format == "json":
        doc = {"header": header}
        doc.update(payload)
        if report is not None:
            doc["report"] = report.as_dict()
        text = json.dumps(doc, indent=2, default=_json_default)
        print(_NON_JSON.sub(lambda m: m[1] + _JSON_VALUE[m[2]], text))
    else:
        print(f"# seed={args.seed} tol={args.tol}")
        for key, value in payload.items():
            if key == "report":
                continue
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


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return matrix_to_data(obj) if obj.ndim == 2 else vector_to_data(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)}")


def _load(path):
    try:
        return load_triple(path)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _read_input(path, decode, doc=None):
    """decode(doc) for the JSON object doc in a file, read from path unless
    given.  A file that cannot be read, is not a JSON object, lacks a key or
    holds a bad encoding exits 2 with one error line."""
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
    print(f"error: {path}: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def cmd_example(args) -> int:
    params = {}
    if args.kind == "trivial_points":
        params["n"] = args.n or 3
    elif args.kind == "two_point":
        params["coupling"] = args.coupling
    elif args.kind == "matrix_geometry":
        params["n"] = args.n or 2
        params["seed"] = args.seed
    try:
        t = build_example(args.kind, **params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    out = args.output or f"{args.kind}.striple"
    save_triple(out, t)
    _emit(args, {"written": out, "hilbert_dim": t.hilbert_dim})
    return EXIT_OK


def cmd_check(args) -> int:
    t, _ = _load(args.path)
    rep = run_condition_suite(t, _tol(args), strict_orientation=args.strict_orientation)
    _emit(args, {"path": args.path}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _bundle_doc(doc):
    """(source triple, module data) bundled by `convert to-riemannian`, or
    None for a document without the bundle."""
    witness, source_doc = doc.get("witness"), doc.get("source")
    if witness is None or source_doc is None:
        return None
    if not isinstance(witness, dict):
        raise FormatError("witness is not a JSON object")
    if witness.get("c_basis_src") is None:
        return None
    source = dict_to_triple(source_doc)
    return source, CliffordModuleData(
        carrier_dim=source.hilbert_dim,
        left_action=[data_to_matrix(w) for w in witness["c_basis_src"]],
        right_action_gens=source.right_action_gens,
        algebra_basis=[data_to_matrix(w) for w in witness["c_basis_out"]]
        if witness.get("c_basis_out") else None,
    )


def cmd_convert(args) -> int:
    t, doc = _load(args.path)
    tol = _tol(args)
    if args.direction == "to-spinc":
        bundle = _read_input(args.path, _bundle_doc, doc)
        if bundle is None:
            print("error: to-spinc needs a file produced by to-riemannian "
                  "(bundled module data missing)", file=sys.stderr)
            return EXIT_FAIL
    try:
        if args.direction == "to-riemannian":
            result = spinc_to_riemannian(t, tol)
            extra = {
                "witness": {
                    "phi": vector_to_data(result.witness["phi"]),
                    "J_kernel": matrix_to_data(result.witness["conjugation_kernel"]),
                    "epsilon": matrix_to_data(result.witness["epsilon"]),
                    "intertwiner": None,
                    "c_basis_src": [matrix_to_data(w) for w in result.witness["c_basis_src"]],
                    "c_basis_out": [matrix_to_data(w) for w in result.witness["c_basis_out"]],
                },
                "source": triple_to_dict(t),
            }
        else:
            source, module = bundle
            result, _, u, irep = backward_round_trip(t, module, source, tol)
            result.report.extend(irep, prefix="roundtrip:")
            extra = {
                "witness": {
                    "intertwiner": matrix_to_data(u) if u is not None else None,
                }
            }
    except ValueError as exc:
        print(f"error: conversion prerequisite failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    out = args.output or (args.path + ".converted")
    save_triple(out, result.output, extra=extra)
    _emit(args, {"written": out}, result.report)
    return EXIT_OK if result.report.passed else EXIT_FAIL


def _module_doc(doc):
    pot = doc.get("potential")
    return (int(doc["size"]), data_to_matrix(doc["projector"]),
            None if pot is None else [[data_to_matrix(p) for p in row] for row in pot])


def cmd_product(args) -> int:
    t, _ = _load(args.path)
    n, q_big, potential = _read_input(args.module, _module_doc)
    tol = _tol(args)
    try:
        right = t.right_algebra(tol)
        if right is None:
            print("error: triple has no right action to twist against", file=sys.stderr)
            return EXIT_FAIL
        conn = BimoduleConnection(ProjectiveModule(right, n, q_big), potential)
        out, _, rep = product_triple(t, conn, tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    outpath = args.output or (args.path + ".product")
    save_triple(outpath, out)
    _emit(args, {"written": outpath}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_double(args) -> int:
    t, _ = _load(args.path)
    try:
        out, rep = double_odd_triple(t, _tol(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    outpath = args.output or (args.path + ".doubled")
    save_triple(outpath, out)
    _emit(args, {"written": outpath}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_homotopy(args) -> int:
    t, _ = _load(args.path)
    rep = appendix_equivalence_check(t, samples=args.samples, tol=_tol(args))
    _emit(args, {"path": args.path}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_pair(args) -> int:
    t, _ = _load(args.path)
    left, right = _read_input(args.projectors, lambda doc: tuple(
        [data_to_matrix(p) for p in doc[side]] for side in ("left", "right")))
    try:
        mat, unimodular, rep = poincare_pairing_matrix(t, left, right, _tol(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(args, {"matrix": mat.tolist(), "unimodular": unimodular}, rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_zeta(args) -> int:
    t, _ = _load(args.path)
    try:
        table = zeta_diagnostic(t, args.s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(args, {"zeta": {str(s): v for s, v in table}})
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncgeo",
                                 description="finite noncommutative geometry workbench")
    ap.add_argument("--tol", type=float, default=1e-9, help="relative residual tolerance")
    ap.add_argument("--rank-cut", type=float, default=1e-10, help="numerical rank cutoff")
    ap.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    g = ap.add_mutually_exclusive_group()
    g.add_argument("--strict-orientation", dest="strict_orientation", action="store_true",
                   default=True, help="require all orientation legs inside the algebra")
    g.add_argument("--generalized-orientation", dest="strict_orientation",
                   action="store_false", help="allow the leading orientation leg outside")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="write a built-in example geometry")
    p.add_argument("kind", choices=EXAMPLE_KINDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--coupling", type=complex, default=1.0)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed for the seeded examples (also accepted globally)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_example)

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

    p = sub.add_parser("double", help="double an ungraded triple")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_double)

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
                   default=[0.0, 1.0, 2.0])
    p.set_defaults(func=cmd_zeta)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
