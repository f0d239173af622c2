"""The seeded config generator: determinism, discontinuities off the nodes,
stable time steps, and the closed-form matrix it uses for the latter."""

import numpy as np
import pytest

import workloads
from jumpspec.cli import build_grid
from jumpspec.diffmat import derivative_matrix

SEEDS = range(12)


def _cycles():
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            yield workload, seed, workloads.generate(workload, seed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    for seed in (0, 7, 12345):
        first = [(c, workloads.config_bytes(cfg)) for c, cfg in workloads.generate(workload, seed)]
        again = [(c, workloads.config_bytes(cfg)) for c, cfg in workloads.generate(workload, seed)]
        assert first == again
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


def _package_nodes(command, cfg):
    """Node sets as the package builds them, one per grid the job uses."""
    if command == "converge":
        family = cfg["family"]
        return [build_grid({"family": family, "a": cfg["a"], "b": cfg["b"], "N": N}).nodes
                for N in cfg["N_list"]]
    return [build_grid(cfg["grid"]).nodes]


def test_no_discontinuity_on_or_near_a_node():
    for _workload, _seed, jobs in _cycles():
        for command, cfg in jobs:
            if command == "evolve":
                x0 = cfg["initial"]["xi0"]
                xis = [x0, x0 + cfg["speed"] * cfg["t_final"]]
            else:
                xis = [cfg["problem"]["xi"]]
            for nodes in _package_nodes(command, cfg):
                for xi in xis:
                    j = int(np.searchsorted(nodes, xi))
                    assert 0 < j < nodes.size, (command, xi)
                    gap = min(xi - nodes[j - 1], nodes[j] - xi)
                    assert gap >= 0.9 * workloads.NODE_MARGIN * (nodes[j] - nodes[j - 1]), (command, xi)


def test_evolve_dt_inside_rk4_stability_limit_with_margin():
    """Checked on the package's own (Fornberg) matrix, not the generator's."""
    for workload, _seed, jobs in _cycles():
        if workload != "advect":
            continue
        for command, cfg in jobs:
            grid = build_grid(cfg["grid"])
            D = derivative_matrix(grid, 1, cfg.get("m", grid.N)).entries
            keep = slice(1, None) if cfg["speed"] > 0 else slice(None, -1)
            lam = np.linalg.eigvals(-cfg["speed"] * D[keep, keep])
            for scale in (1.0, 1.5):  # the limit is at least 1.5 dt: a real margin
                assert np.max(workloads.rk4_amplification(scale * cfg["dt"] * lam)) <= 1.0 + 1e-9


def test_closed_form_matrix_matches_package():
    for family, N, m in (("cgl", 24, 24), ("cgl", 40, 6), ("equidistant", 48, 2), ("equidistant", 20, 5)):
        grid = build_grid({"family": family, "a": -0.7, "b": 1.3, "N": N})
        ours = workloads.first_derivative_matrix(workloads.grid_nodes(family, -0.7, 1.3, N), m)
        theirs = derivative_matrix(grid, 1, m).entries
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-9 * np.abs(theirs).max())


def test_every_config_checks_its_error():
    for _workload, _seed, jobs in _cycles():
        for command, cfg in jobs:
            assert workloads.tolerance_checks(cfg), command


def test_cycle_shape_does_not_depend_on_the_seed():
    def shape(jobs):
        return sorted((
            (c, cfg.get("grid", {}).get("N"), cfg.get("m"), cfg.get("n"), str(cfg.get("N_list")),
             cfg.get("probes"), cfg.get("corrections"))
            for c, cfg in jobs
        ), key=repr)

    for workload in workloads.WORKLOADS:
        assert shape(workloads.generate(workload, 3)) == shape(workloads.generate(workload, 99))
