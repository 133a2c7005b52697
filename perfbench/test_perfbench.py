"""Self-tests of the benchmark: the output check and the tracer.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import ncgeo  # noqa: E402
import workloads  # noqa: E402
from check import detail_ints, load_reference  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def warm_ops(name, tmp_path):
    warm, _ = workloads.build(name, 7, tmp_path)
    return warm


def test_detail_ints_skip_floats():
    assert detail_ints("|[D,a]|=8.064181e-01 |[|D|,a]|=2.2e-17") == []
    assert detail_ints("commutant dim 4, right action dim 4") == [4, 4]
    assert detail_ints("min Gram eigenvalue 1.000e+00") == []
    assert detail_ints("right pairing scale 2.000000") == []


def test_flipped_status_counts_as_failed_op(tmp_path, reference):
    (op,) = warm_ops("suite_h18", tmp_path)
    records, _ = run.timed_phase([op], reference, 0.0)
    assert records[0]["problems"] == []

    def flipped(t):
        rep = op.call(t)
        entry = next(e for e in rep.entries if e.status == "pass")
        entry.status = "fail"
        return rep

    records, _ = run.timed_phase([dataclasses.replace(op, call=flipped)], reference, 0.0)
    assert records[0]["problems"], "a flipped status must fail the op"


def test_wrong_zeta_value_counts_as_failed_op(tmp_path, reference):
    ops = {op.label.split()[1]: op for op in warm_ops("cli_h8", tmp_path)}
    example, zeta = ops["example"], ops["zeta"]
    records, _ = run.timed_phase([example, zeta], reference, 0.0)
    assert [r["problems"] for r in records] == [[], []]

    def off_by_a_little(argv):
        code, stdout = zeta.call(argv)
        doc = json.loads(stdout)
        doc["zeta"]["2.0"] *= 1.0 + 1e-6
        return code, json.dumps(doc)

    records, _ = run.timed_phase([dataclasses.replace(zeta, call=off_by_a_little)],
                                 reference, 0.0)
    assert records[0]["problems"], "a wrong zeta(2) must fail the op"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_identical_with_tracer_on_and_off(name, tmp_path, reference):
    ops = warm_ops(name, tmp_path)
    plain, _ = run.timed_phase(ops, reference, 0.0)
    original = ncgeo.linalg.operator_norm
    tracer = Tracer()
    with tracer:
        assert ncgeo.algebra.operator_norm is not original
        traced, walls = run.timed_phase(ops, reference, 0.0, tracer)
    assert ncgeo.algebra.operator_norm is original and ncgeo.operator_norm is original
    for a, b in zip(plain, traced):
        assert a["problems"] == [] and b["problems"] == []
        assert a["fingerprint"] == b["fingerprint"], a["op"]
    metrics = tracer.layer_metrics(walls[0], walls[0])
    assert set(metrics) == set(metric_units())

    # counts and sizes repeat exactly when the same ops are traced again
    with Tracer() as again:
        _, walls = run.timed_phase(ops, reference, 0.0, again)
    repeated = again.layer_metrics(walls[0], walls[0])
    for name, unit in metric_units().items():
        if unit in ("count", "bytes", "MB"):
            assert repeated[name] == metrics[name], name
    assert metrics["linalg.operator_norm.calls"] > 0
    assert metrics["linalg.lapack_calls"] > 0
    assert metrics["triples.cda_requests"] > 0
    if name == "cli_h8":
        assert metrics["cli.calls"] > 0
        assert metrics["io.bytes_written"] > 0 and metrics["io.bytes_read"] > 0
