"""Arithmetic of the traced run: self time, parents across pool threads,
and the per-layer metric set on every workload."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tracing
import workloads
from client import Client

NAMES = [name for name, _unit in tracing.PER_LAYER]


def test_self_time_of_a_nested_trace():
    #   0 root [0, 10]: children 1 [1, 4] and 3 [5, 6]; 1 has child 2 [2, 3]
    sid = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    np.testing.assert_allclose(tracing.self_times(sid, parent, start, end), [6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_pool_children_once():
    # pool span 0 [0, 10] on the client thread; children from two worker
    # threads overlap ([0.5, 6] with [1, 8], [6.5, 9]), and one runs past the
    # parent's end ([9.5, 12], clipped to [9.5, 10])
    sid = [0, 11, 12, 13, 14]
    parent = [-1, 0, 0, 0, 0]
    start = [0.0, 0.5, 1.0, 6.5, 9.5]
    end = [10.0, 6.0, 8.0, 9.0, 12.0]
    got = tracing.self_times(sid, parent, start, end)
    assert got[0] == pytest.approx(10.0 - (9.0 - 0.5) - 0.5)
    np.testing.assert_allclose(got[1:], [5.5, 7.0, 2.5, 2.5])


def test_pool_thread_spans_are_parented_to_the_open_client_span():
    tracer = tracing.Tracer()
    work = tracer.wrap("work", lambda: threading.get_ident())
    job = tracer.begin_job(7)
    pool = tracer.open()
    with ThreadPoolExecutor(max_workers=2) as ex:
        idents = [f.result() for f in [ex.submit(work) for _ in range(6)]]
    tracer.close(pool, "pool")
    tracer.close(job, "job")
    s = tracer.spans()
    names = list(s["names"])
    is_work = s["name"] == names.index("work")
    pool_sid = s["sid"][s["name"] == names.index("pool")][0]
    job_sid = s["sid"][s["name"] == names.index("job")][0]
    assert is_work.sum() == 6
    assert np.all(s["parent"][is_work] == pool_sid)
    assert s["parent"][s["sid"] == pool_sid][0] == job_sid
    assert np.all(s["job"] == 7)
    client_thread = s["thread"][s["sid"] == job_sid][0]
    assert np.all(s["thread"][is_work] != client_thread)
    assert len(set(s["thread"][is_work])) == len(set(idents))


def test_install_routes_call_sites_and_undo_restores_them():
    import jumpspec.cli
    import jumpspec.diffmat
    import jumpspec.mol

    before = (jumpspec.cli.derivative_matrix, jumpspec.mol.rk4_step, jumpspec.diffmat.fd_weights)
    undo = tracing.install(tracing.Tracer())
    try:
        assert jumpspec.cli.derivative_matrix is not before[0]
        assert jumpspec.cli.derivative_matrix.__wrapped__ is before[0]
        assert jumpspec.diffmat.derivative_matrix is jumpspec.cli.derivative_matrix
        assert jumpspec.mol.rk4_step.__wrapped__ is before[1]
        assert jumpspec.diffmat.fd_weights.__wrapped__ is before[2]
    finally:
        undo()
    assert (jumpspec.cli.derivative_matrix, jumpspec.mol.rk4_step, jumpspec.diffmat.fd_weights) == before


def _small_cycle(workload, tmp_path):
    """A few of the workload's jobs, cut down to keep the test short."""
    jobs = workloads.generate(workload, 5)
    picked, seen = [], set()
    for command, cfg in sorted(jobs, key=lambda j: (j[1].get("grid", {}).get("N", 0), str(j[1]))):
        kind = (command, cfg.get("corrections"), "m" in cfg)
        if kind in seen:
            continue
        seen.add(kind)
        if command == "evolve":
            cfg = dict(cfg, t_final=cfg["t_final"] / 40)
        picked.append((command, cfg))
    out = []
    for i, (command, cfg) in enumerate(picked):
        path = tmp_path / f"{i}.json"
        path.write_bytes(workloads.config_bytes(cfg))
        out.append((command, cfg, str(path), str(tmp_path / f"out{i}")))
    return out


CALLED = {
    "advect": ["diffmat.derivative_matrix.calls", "diffmat.fd_weights.calls", "mol.rk4_step.calls",
               "jumps.corrected_derivative.calls", "jumps.jump_weights.calls", "mol.step_us.corrected",
               "mol.step_us.plain", "mol.step_cost_ratio", "cli.write_csv.bytes"],
    "operators": ["diffmat.derivative_matrix.calls", "diffmat.fd_weights.calls", "diffmat.apply.calls",
                  "quadrature.basis_integrals.calls", "jumps.corrected_derivative.calls",
                  "quadrature.quad_weights.self_s", "jumps.corrected_integrate.self_s"],
    "interp-sweep": ["lagrange.interpolate.calls", "lagrange.interpolate.points", "grid.build.calls",
                     "jumps.corrected_interpolate.calls", "jumps.corrected_interpolate.points",
                     "cli.converge.pool_wait_s", "cli.converge.pool_busy_ratio"],
}
NOT_CALLED = {
    "advect": ["lagrange.interpolate.calls", "jumps.corrected_interpolate.calls",
               "quadrature.basis_integrals.calls", "cli.converge.pool_wait_s"],
    "operators": ["mol.rk4_step.calls", "jumps.corrected_interpolate.calls", "lagrange.interpolate.calls",
                  "mol.step_cost_ratio"],
    "interp-sweep": ["diffmat.derivative_matrix.calls", "diffmat.fd_weights.calls", "diffmat.apply.calls",
                     "mol.rk4_step.calls", "jumps.corrected_derivative.calls",
                     "quadrature.basis_integrals.calls"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reports_every_layer_metric(workload, tmp_path):
    client = Client(_small_cycle(workload, tmp_path))
    untraced = client.run_cycle()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = client.run_cycle(tracer)
    finally:
        undo()
    assert client.failures == []
    spans = tracer.spans()
    metrics = tracing.layer_metrics(spans, 1, traced, untraced)
    assert list(metrics) == NAMES
    assert all(np.isfinite(v) for v in metrics.values())
    for name in CALLED[workload]:
        assert metrics[name] > 0, name
    for name in NOT_CALLED[workload]:
        assert metrics[name] == 0, name
    # the job span is the root of each job; its self time is what no layer covers
    names = list(spans["names"])
    jobs = spans["name"] == names.index("cli.job")
    assert jobs.sum() == len(client.jobs)
    assert np.all(spans["parent"][jobs] == -1)
    assert 0 < metrics["cli.job.self_s"] < traced


def test_counts_repeat_exactly_across_passes(tmp_path):
    client = Client(_small_cycle("operators", tmp_path))
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        wall = client.run_cycle(tracer)
        once = tracing.layer_metrics(tracer.spans(), 1, wall, wall)
        wall += client.run_cycle(tracer)
    finally:
        undo()
    twice = tracing.layer_metrics(tracer.spans(), 2, wall, wall)
    for name in NAMES:
        if name.endswith(".calls") or name.endswith(".points") or name.endswith(".bytes"):
            assert twice[name] == once[name], name
