import numpy as np
import pytest

from jumpspec import (
    AdvectionProblem,
    JumpData,
    XiOnNodeError,
    apply,
    chebyshev_gauss_lobatto,
    corrected_derivative,
    derivative_matrix,
    evolve,
    fd_weights,
    reconstruct_pieces,
    rk4_step,
)


def kink_problem(N=32, xi0=-0.5, c=1.0, T=1.0, corrections=True):
    g = chebyshev_gauss_lobatto(-1, 1, N)
    u0 = lambda x: np.abs(np.asarray(x, dtype=float) - xi0)
    jump0 = JumpData(xi0, [0.0, 2.0]) if corrections else None
    return AdvectionProblem(g, c, u0, jump0, T), g


# The semi-discrete right-hand side is -c times the corrected derivative;
# rk4_step evaluates it at each stage for the instantaneous jump location.


def test_rhs_constant_state_with_zero_jumps():
    prob, g = kink_problem()
    prob = AdvectionProblem(g, 1.0, lambda x: np.ones_like(x), JumpData(-0.5, [0.0, 0.0]), 1.0)
    D = derivative_matrix(g, 1)
    got = corrected_derivative(D, np.ones(g.N + 1), prob.jump0)
    assert np.abs(got).max() <= 1e-13 * np.abs(D.entries).max()
    stepped = rk4_step(np.ones(g.N + 1), 0.0, 1e-3, prob, D)
    assert np.abs(stepped - 1.0).max() <= 1e-15 * np.abs(D.entries).max()


def test_rhs_step_state_is_annihilated():
    g = chebyshev_gauss_lobatto(-1, 1, 16)
    xi0 = -0.3
    u0 = lambda x: np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5)
    prob = AdvectionProblem(g, 1.0, u0, JumpData(xi0, [1.0]), 0.5)
    D = derivative_matrix(g, 1)
    got = corrected_derivative(D, u0(g.nodes), prob.jump0)
    assert np.abs(got).max() <= 1e-12 * np.abs(D.entries).max()
    # no node is crossed within the step, so the nodal state stays put
    stepped = rk4_step(u0(g.nodes), 0.0, 1e-3, prob, D)
    assert np.abs(stepped - u0(g.nodes)).max() <= 1e-14 * np.abs(D.entries).max()


def test_rhs_linear_state_no_jumps():
    g = chebyshev_gauss_lobatto(-1, 1, 12)
    c = 2.5
    prob = AdvectionProblem(g, c, lambda x: np.asarray(x, dtype=float), None, 1.0)
    D = derivative_matrix(g, 1)
    tol = 1e-12 * np.abs(D.entries).max()
    np.testing.assert_allclose(-c * corrected_derivative(D, g.nodes, []), -c, rtol=0, atol=tol)
    dt = 1e-2
    np.testing.assert_allclose(rk4_step(g.nodes, 0.0, dt, prob, D), g.nodes - c * dt, rtol=0, atol=dt * tol)


def test_rhs_raises_on_node_crossing_instant():
    prob, g = kink_problem(xi0=-0.5)
    D = derivative_matrix(g, 1)
    node = g.nodes[20]
    t_cross = node - (-0.5)
    assert prob.jump0.xi + prob.speed * float(t_cross) == node
    with pytest.raises(XiOnNodeError):
        corrected_derivative(D, prob.initial(g.nodes), JumpData(node, prob.jump0.jumps))
    # a step may land on a crossing: its stages stay strictly off the node
    k = int(np.searchsorted(g.nodes, -0.5))
    state = rk4_step(prob.initial(g.nodes), 0.0, float(g.nodes[k] + 0.5), prob, D)
    assert np.all(np.isfinite(state))


def test_rk4_step_zero_rhs_keeps_state():
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    prob = AdvectionProblem(g, 0.0, lambda x: np.sin(x), None, 1.0)
    D = derivative_matrix(g, 1)
    state = np.sin(g.nodes)
    np.testing.assert_array_equal(rk4_step(state, 0.0, 1e-2, prob, D), state)


def test_rk4_step_rejects_interior_crossing():
    prob, g = kink_problem(xi0=-0.5)
    D = derivative_matrix(g, 1)
    state = prob.initial(g.nodes)
    with pytest.raises(RuntimeError):
        rk4_step(state, 0.0, 0.5, prob, D)  # path sweeps several nodes


def test_smooth_gaussian_advection_accuracy():
    g = chebyshev_gauss_lobatto(-1, 1, 24)
    u0 = lambda x: np.exp(-(((np.asarray(x, dtype=float) + 0.25) / 0.35) ** 2))
    prob = AdvectionProblem(g, 1.0, u0, None, 0.5)
    D = derivative_matrix(g, 1)
    res = evolve(prob, D, 1e-3, output_every=100)
    assert res.error_linf[-1] <= 1e-6


def test_kinked_advection_accuracy_short_run():
    g = chebyshev_gauss_lobatto(-1, 1, 24)
    xi0 = -0.25
    u0 = lambda x: np.abs(np.asarray(x, dtype=float) - xi0)
    prob = AdvectionProblem(g, 1.0, u0, JumpData(xi0, [0.0, 2.0]), 0.5)
    D = derivative_matrix(g, 1)
    res = evolve(prob, D, 1e-3, output_every=100)
    assert res.error_linf[-1] <= 1e-4


def test_zero_speed_keeps_state_constant():
    g = chebyshev_gauss_lobatto(-1, 1, 16)
    u0 = lambda x: np.exp(-((np.asarray(x, dtype=float) / 0.4) ** 2))
    prob = AdvectionProblem(g, 0.0, u0, None, 1.0)
    D = derivative_matrix(g, 1)
    res = evolve(prob, D, 1e-2, output_every=10)
    assert np.abs(res.states - res.states[0]).max() <= 1e-12


def test_xi_path_is_exact_and_errors_recorded():
    prob, g = kink_problem(T=0.5)
    D = derivative_matrix(g, 1)
    res = evolve(prob, D, 1e-3, output_every=50)
    np.testing.assert_array_equal(res.xi_path, -0.5 + res.times)
    assert res.times[0] == 0.0 and res.times[-1] == 0.5
    assert np.all(res.error_linf >= 0.0)
    assert res.states.shape == (res.times.size, g.N + 1)


def test_jump_preserved_along_the_run():
    prob, g = kink_problem(N=32, T=1.0)
    D = derivative_matrix(g, 1)
    res = evolve(prob, D, 1e-3, output_every=250)
    for t, state in zip(res.times[1:], res.states[1:]):
        xi = -0.5 + t
        if np.any(g.nodes == xi):
            continue
        # split-based reconstruction carries the enforced slope jump
        minus, plus = reconstruct_pieces(state, JumpData(xi, [0.0, 2.0]), g)
        dp = fd_weights(g.nodes, xi, 1) @ plus
        dm = fd_weights(g.nodes, xi, 1) @ minus
        assert dp - dm == pytest.approx(2.0, rel=1e-8)
        # independent secant estimate across the kink, no jump data used
        k = int(np.searchsorted(g.nodes, xi))
        slope_right = (state[k + 1] - state[k]) / (g.nodes[k + 1] - g.nodes[k])
        slope_left = (state[k - 1] - state[k - 2]) / (g.nodes[k - 1] - g.nodes[k - 2])
        assert slope_right - slope_left == pytest.approx(2.0, rel=0.05)


def test_disabled_corrections_run_and_show_derivative_oscillations():
    prob, g = kink_problem(corrections=False, T=0.5)
    D = derivative_matrix(g, 1)
    res = evolve(prob, D, 1e-3, output_every=100)
    assert np.all(np.isfinite(res.states))
    # the uncorrected spatial derivative oscillates near the kink with
    # overshoot well above 5% of the slope jump
    xi = -0.5 + 0.37
    u = np.abs(g.nodes - xi)
    overshoot = np.abs(apply(D, u) - np.sign(g.nodes - xi))
    near = np.abs(g.nodes - xi) <= 0.25
    assert overshoot[near].max() > 0.05 * 2.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_blow_up_detection():
    g = chebyshev_gauss_lobatto(-1, 1, 32)
    u0 = lambda x: np.exp(-((np.asarray(x, dtype=float) / 0.3) ** 2))
    prob = AdvectionProblem(g, 1.0, u0, None, 50.0)
    D = derivative_matrix(g, 1)
    with pytest.raises(RuntimeError):
        evolve(prob, D, 0.5, output_every=1)  # far above the stable step size


@pytest.mark.parametrize("speed", [1.0, -1.0])
@pytest.mark.parametrize("N,T,amp", [(24, 0.4, 1.0), (32, 1.0, -2.5)])
def test_step_profile_stays_exact_across_node_crossings(N, T, amp, speed):
    # every node the step passes moves to the far branch, so the corrected
    # run reproduces the translated step to rounding
    g = chebyshev_gauss_lobatto(-1, 1, N)
    xi0 = -0.5 * speed
    u0 = lambda x: amp * np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5)
    prob = AdvectionProblem(g, speed, u0, JumpData(xi0, [amp]), T)
    crossings = np.count_nonzero((np.abs(g.nodes - xi0) > 0) & (np.abs(g.nodes - xi0) < T)
                                 & (np.sign(g.nodes - xi0) == speed))
    assert crossings >= 3
    res = evolve(prob, derivative_matrix(g, 1), 1e-3, output_every=100)
    assert res.error_linf[-1] <= 1e-12 * abs(amp)


def test_problem_validation():
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    with pytest.raises(ValueError):
        AdvectionProblem(g, 1.0, lambda x: x, JumpData(-0.5, [0.0, 2.0]), 2.0)  # path exits
    with pytest.raises(ValueError):
        AdvectionProblem(g, 1.0, lambda x: x, JumpData(0.0, [1.0]), 0.1)  # starts on node
    prob, g = kink_problem()
    D = derivative_matrix(g, 1)
    with pytest.raises(ValueError):
        evolve(prob, D, -1e-3)
    with pytest.raises(ValueError):
        evolve(prob, D, 1e-3, output_every=0)
