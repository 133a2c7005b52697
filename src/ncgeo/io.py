"""Text serialization: matrices as rows of [re, im] pairs, triples as JSON documents."""
from __future__ import annotations

import json

import numpy as np

from .triples import HochschildChain, SpectralTripleData

__all__ = [
    "matrix_to_data",
    "data_to_matrix",
    "vector_to_data",
    "data_to_vector",
    "triple_to_dict",
    "dict_to_triple",
    "save_triple",
    "load_triple",
    "FormatError",
    "int_field",
]

FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


def int_field(value, name: str) -> int:
    """A document's integer field; anything else (2.9, "2", true, which int()
    would take) raises a FormatError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{name} must be an integer, got {value!r}")
    return value


def matrix_to_data(m) -> list:
    m = np.asarray(m, dtype=complex)
    # tolist gives the same Python floats as a per-entry float() of each part
    return np.stack([m.real, m.imag], -1).tolist()


def data_to_matrix(data) -> np.ndarray:
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise FormatError(f"bad matrix encoding: {exc}") from exc
    if len({len(row) for row in rows}) > 1:
        raise FormatError("matrix rows have unequal lengths")
    m = np.array(rows, dtype=complex)
    if m.ndim != 2:
        raise FormatError("matrix encoding must be a list of rows")
    return _finite(m)


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise FormatError("matrix or vector entries must be finite (no NaN or infinity)")
    return a


def vector_to_data(v) -> list:
    v = np.asarray(v, dtype=complex).ravel()
    return np.stack([v.real, v.imag], -1).tolist()


def data_to_vector(data) -> np.ndarray:
    try:
        v = np.array([complex(e[0], e[1]) for e in data], dtype=complex)
    except (TypeError, IndexError) as exc:
        raise FormatError(f"bad vector encoding: {exc}") from exc
    return _finite(v)


def triple_to_dict(t: SpectralTripleData) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "hilbert_dim": t.hilbert_dim,
        "p": t.declared_p,
        "algebra": {"generators": [matrix_to_data(g) for g in t.algebra_gens]},
        "dirac": matrix_to_data(t.dirac),
        "grading": matrix_to_data(t.grading) if t.grading is not None else None,
        "right_action": {"generators": [matrix_to_data(g) for g in t.right_action_gens]}
        if t.right_action_gens is not None else None,
        "cycle": None,
        "phi": vector_to_data(t.riemann_vector) if t.riemann_vector is not None else None,
        "state": matrix_to_data(t.state) if t.state is not None else None,
    }
    if t.orientation_cycle is not None:
        doc["cycle"] = {
            "degree": t.orientation_cycle.degree,
            "generalized": bool(t.orientation_cycle.generalized),
            "terms": [[matrix_to_data(m) for m in term] for term in t.orientation_cycle.terms],
        }
    return doc


def dict_to_triple(doc: dict) -> SpectralTripleData:
    try:
        version = doc["version"]
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        n = int_field(doc["hilbert_dim"], "hilbert_dim")
        gens = [data_to_matrix(g) for g in doc["algebra"]["generators"]]
        dirac = data_to_matrix(doc["dirac"])
        grading = data_to_matrix(doc["grading"]) if doc.get("grading") is not None else None
        right = None
        if doc.get("right_action") is not None:
            right = [data_to_matrix(g) for g in doc["right_action"]["generators"]]
        cycle = None
        if doc.get("cycle") is not None:
            c = doc["cycle"]
            degree = int_field(c["degree"], "cycle degree")
            generalized = c.get("generalized", False)
            if not isinstance(generalized, bool):
                raise FormatError(f"cycle generalized must be a boolean, got {generalized!r}")
            cycle = HochschildChain(
                degree,
                [tuple(data_to_matrix(m) for m in term) for term in c["terms"]],
                generalized,
            )
        phi = data_to_vector(doc["phi"]) if doc.get("phi") is not None else None
        state = data_to_matrix(doc["state"]) if doc.get("state") is not None else None
        # the shapes, the generator lists and p are checked by construction
        return SpectralTripleData(
            hilbert_dim=n,
            algebra_gens=gens,
            dirac=dirac,
            grading=grading,
            declared_p=doc.get("p", 0),
            right_action_gens=right,
            orientation_cycle=cycle,
            riemann_vector=phi,
            state=state,
        )
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed triple document: {exc}") from exc


def save_triple(path, t: SpectralTripleData, extra: dict | None = None):
    doc = triple_to_dict(t)
    if extra:
        doc.update(extra)
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_triple(path):
    """Returns (triple, full document) so callers can read bundled extras."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON at line {exc.lineno}") from exc
    return dict_to_triple(doc), doc
