"""Output checks: reduce an op's output to a digest and compare it with the reference.

The reference (``reference.json`` beside this file) was recorded once from
the seed commit, one digest per (workload, example kind, size[, verb]).  A
digest keeps what must not change when the program gets faster: condition
ids, statuses, the integers in each entry's details (dimensions, ranks,
frame sizes), CLI exit codes, Hilbert dimensions, and invariants that hold
for every seed (residual within tolerance for passing entries, an
intertwiner from every round trip, zeta values recomputed from the
triple's Dirac operator).  Residual values themselves vary with
the workload seed and are not compared.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+|inf|nan")
_INT = re.compile(r"\d+")


def detail_ints(details: str) -> list:
    """Integers in a details string, after removing every float-looking token."""
    return [int(tok) for tok in _INT.findall(_FLOAT.sub(" ", details))]


def report_digest(report: dict) -> dict:
    """Digest of a ``CheckReport.as_dict()`` (or the ``report`` of CLI JSON output)."""
    entries = []
    within = True
    for e in report["entries"]:
        entries.append([e["condition_id"], e["status"], detail_ints(e["details"])])
        if e["status"] == "pass" and not e["residual"] <= e["tolerance"]:
            within = False
    return {"passed": report["passed"], "entries": entries, "residuals_within_tol": within}


def zeta_matches_spectrum(zeta: dict, striple_path) -> bool:
    """Each printed zeta(s) equals sum((1 + lambda^2)^(-s/2)) over the eigenvalues
    of the file's Dirac operator, recomputed here, within a relative 1e-9."""
    import numpy as np  # not at module level: run.py caps BLAS threads before numpy loads

    with open(striple_path) as fh:
        dirac = np.array(json.load(fh)["dirac"], dtype=float)
    eigenvalues = np.linalg.eigvalsh(dirac[..., 0] + 1j * dirac[..., 1])
    for s, value in zeta.items():
        expected = float(np.sum((1.0 + eigenvalues ** 2) ** (-float(s) / 2.0)))
        if not abs(float(value) - expected) <= 1e-9 * abs(expected):
            return False
    return True


def cli_digest(verb: str, exit_code: int, stdout: str, striple_path=None) -> dict:
    """Digest of one ``ncgeo --format json <verb> ...`` call; ``zeta`` needs the
    path of the triple it read."""
    doc = json.loads(stdout)
    out = {"exit": exit_code}
    if verb == "example":
        out["hilbert_dim"] = doc["hilbert_dim"]
    elif verb == "zeta":
        # zeta(0) counts eigenvalues exactly; the others depend on the seed
        out["zeta0"] = float(doc["zeta"]["0.0"])
        out["zeta_matches_spectrum"] = zeta_matches_spectrum(doc["zeta"], striple_path)
    else:
        out.update(report_digest(doc["report"]))
    return out


def fingerprint(*parts) -> str:
    """Exact fingerprint of an op's full output (floats by repr), for on/off comparisons."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["digests"]


def mismatches(digest: dict, expected: dict | None) -> list:
    """Human-readable differences between a digest and its reference; empty if it matches."""
    if expected is None:
        return ["no reference digest"]
    problems = []
    for key in sorted(set(expected) | set(digest)):
        got, want = digest.get(key), expected.get(key)
        if got == want:
            continue
        if key == "entries" and got is not None and want is not None:
            for g, w in zip(got, want):
                if g != w:
                    problems.append(f"entry {w[0]}: expected {w[1:]} got {g[0]} {g[1:]}")
                    break
            if len(got) != len(want):
                problems.append(f"{len(got)} entries, expected {len(want)}")
        else:
            problems.append(f"{key}: expected {want!r} got {got!r}")
    return problems
