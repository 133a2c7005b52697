"""The n=3 digests of `perfbench/reference.json`, checked in tier-1, and
the n=4 round trip's digest pinned beside this file.

The benchmark's self-tests compare only its n=2 warm-up ops with the
reference; these run `run_condition_suite` and `round_trip_check` on
matrix_geometry n=3 and compare them the way the benchmark does, through
`perfbench/check.py`, which is loaded and read here, never edited.  The
benchmark has no n=4 workload, so `roundtrip_h32_digest.json` holds the
ids, statuses and detail integers of `round_trip_check(matrix_geometry(4,
0))` as the program gave them before its outputs' algebras were carried
through the conversions.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from ncgeo.convert import round_trip_check
from ncgeo.examples import matrix_geometry
from ncgeo.triples import run_condition_suite

_spec = importlib.util.spec_from_file_location(
    "perfbench_check", Path(__file__).resolve().parents[1] / "perfbench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

SEEDS = [0, 2001408477]


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_digest(reference, seed):
    rep = run_condition_suite(matrix_geometry(3, seed), strict_orientation=False)
    digest = check.report_digest(rep.as_dict())
    assert check.mismatches(digest, reference["suite/matrix_geometry/3"]) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_round_trip_digest(reference, seed):
    res = round_trip_check(matrix_geometry(3, seed))
    digest = check.report_digest(res.report.as_dict())
    digest["intertwiner"] = res.witness["intertwiner"] is not None
    assert check.mismatches(digest, reference["roundtrip/matrix_geometry/3"]) == []
    # the round trip's new details carry a ratio, no integer
    entry = res.report.entry("intertwine:dirac_residual")
    assert entry.details.startswith("part of u* D u - S outside the commutant of the source algebra")
    assert check.detail_ints(entry.details) == []
    for cid in ("backward:convert:potential_in_one_form_span", "backward:convert:potential_hermitian"):
        assert check.detail_ints(res.report.entry(cid).details) == []


def test_round_trip_digest_h32():
    # the second size of the ladder (H=32 -> 64 -> 32): ids, statuses and
    # detail integers pinned in roundtrip_h32_digest.json
    pinned = json.loads((Path(__file__).with_name("roundtrip_h32_digest.json")).read_text())
    res = round_trip_check(matrix_geometry(4, 0))
    digest = check.report_digest(res.report.as_dict())
    assert res.report.passed and digest["residuals_within_tol"]
    assert res.witness["intertwiner"] is not None
    expected = {"passed": pinned["passed"], "entries": pinned["entries"]}
    assert check.mismatches({key: digest[key] for key in expected}, expected) == []
