"""Tests of the benchmark itself: seeding, failure detection, self time."""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _first_rounds(name: str, seed: int, workdir: Path, n: int = 2):
    out = []
    for jobs in islice(workloads.rounds(workloads.WORKLOADS[name].templates, seed, workdir), n):
        for job in jobs:
            files = {p.name: text() for p, text in job.files.items()}
            out.append((job.id, job.template, job.label, job.expect, files))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs(name, tmp_path):
    a = _first_rounds(name, 5, tmp_path)
    b = _first_rounds(name, 5, tmp_path)
    assert a == b
    assert a != _first_rounds(name, 6, tmp_path)


def _one_job(template: str, tmp_path: Path):
    templates = [t for w in workloads.WORKLOADS.values() for t in w.templates
                 if t.name == template]
    small = [workloads.Template(t.name, t.build, t.lo, t.lo, expect=t.expect)
             for t in templates[:1]]
    return next(workloads.rounds(small, 3, tmp_path))[0]


def test_shifted_eigenvalue_fails(tmp_path):
    job = _one_job("spectrum-interval", tmp_path)
    for path, text in job.files.items():
        path.write_text(text())
    out = job.run()
    assert job.check(out) is None

    payload = json.loads(out.stdout)
    payload["eigenvalues_dimensionless"][3] += 1e-6
    bad = workloads.CliResult(out.code, json.dumps(payload), out.stderr)
    assert "eigenvalues off" in job.check(bad)

    failing = workloads.Job(job.id, job.template, job.label, "", lambda: bad,
                            job.check, job.files)
    record = run.execute(failing)
    assert record["failed"] and not record["expected"]


def test_known_defect_must_fail_with_its_own_reason(tmp_path):
    job = _one_job("det-degenerate-robin-large", tmp_path)
    ld = job.run()
    record = run.execute(job)
    assert record["failed"] and record["expected"], record["reason"]

    def as_job(outcome):
        return workloads.Job(job.id, job.template, job.label, job.expect, lambda: outcome,
                             job.check, {})
    wrong_sign = run.execute(as_job(type(ld)(-ld.sign, ld.log_abs)))
    assert wrong_sign["failed"] and not wrong_sign["expected"]
    raising = run.execute(as_job(None))  # the check raises on a missing result
    assert raising["failed"] and not raising["expected"]

    right = workloads.Job(job.id, job.template, job.label, job.expect,
                          lambda: "fine", lambda out: None, {})
    passed = run.execute(right)
    assert not passed["failed"] and passed["unexpected_pass"]


def test_wrong_determinant_and_exit_code_fail(tmp_path):
    job = _one_job("lib-det", tmp_path)
    ld = job.run()
    assert job.check(ld) is None
    assert job.check(type(ld)(ld.sign, ld.log_abs + 1e-3)) is not None
    assert job.check(type(ld)(-ld.sign, ld.log_abs)) is not None
    assert "exit 3" in workloads._payload(workloads.CliResult(3, "", "boom"))[1]


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, False, 0]


def test_self_time_on_nested_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),           # 0
        _span("cli.cmd_det", 1.0, 9.0, 0),          # 1
        _span("core.load_potential", 2.0, 3.0, 1),  # 2
        _span("transfer.determinant:interval", 4.0, 8.0, 1),  # 3
        _span("closedform.free_determinant", 5.0, 6.0, 3),    # 4
        _span("cli.emit", 9.5, 9.9, 0),             # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 8 - 0.4, 8 - 1 - 4, 1, 3, 1, 0.4])
    assert tracing.self_by_job(spans)[0] == pytest.approx(10.0)
    m = tracing.layer_metrics(spans, rounds=2)
    assert m["cli.self_s"] == pytest.approx((1.6 + 3 + 0.4) / 2)
    assert m["cli.cmd.self_s"] == pytest.approx(1.5)
    assert m["transfer.determinant_interval.self_s"] == pytest.approx(1.5)
    assert m["core.load_potential.busy_s"] == pytest.approx(0.5)
    assert m["cli.render.busy_s"] == pytest.approx(0.2)


def test_overlapping_children_are_counted_once():
    spans = [_span("a.x", 0.0, 10.0, -1), _span("a.y", 1.0, 5.0, 0), _span("a.z", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_benchmark_json_matches_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]
