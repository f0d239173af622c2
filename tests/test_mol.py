import dataclasses
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpspec import (
    AdvectionProblem,
    JumpData,
    apply,
    chebyshev_gauss_lobatto,
    corrected_derivative,
    custom,
    derivative_matrix,
    equidistant,
    evolve,
    fd_weights,
    jump_weights,
    one_sided_derivatives_at_node,
    rk4_step,
)
from jumpspec import mol
from jumpspec.jumps import _pieces


def kink_problem(N=32, xi0=-0.5, c=1.0, T=1.0, corrections=True):
    g = chebyshev_gauss_lobatto(-1, 1, N)
    u0 = lambda x: np.abs(np.asarray(x, dtype=float) - xi0)
    jump0 = JumpData(xi0, [0.0, 2.0]) if corrections else None
    return AdvectionProblem(g, c, u0, jump0, T), g


# The semi-discrete right-hand side is -c times the corrected derivative at
# the instantaneous jump location; rk4_step applies its RK4 step as one matrix
# and a forcing term.


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
    np.testing.assert_allclose(-c * corrected_derivative(D, g.nodes, None), -c, rtol=0, atol=tol)
    dt = 1e-2
    np.testing.assert_allclose(rk4_step(g.nodes, 0.0, dt, prob, D), g.nodes - c * dt, rtol=0, atol=dt * tol)


def test_rhs_raises_on_node_crossing_instant():
    prob, g = kink_problem(xi0=-0.5)
    D = derivative_matrix(g, 1)
    node = g.nodes[20]
    t_cross = node - (-0.5)
    assert prob.jump0.xi + prob.speed * float(t_cross) == node
    with pytest.raises(ValueError, match="coincides with a grid node"):
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


@pytest.mark.parametrize("shape", [(5, 5), (4,), (6,)])
def test_one_shot_step_rejects_a_state_that_is_not_one_value_per_node(shape):
    # a 5 x 5 state once came back 5 x 5, the forcing row added along its
    # last axis: row 0 was the 1-D step, and no column was
    g = chebyshev_gauss_lobatto(-1, 1, 4)
    prob = AdvectionProblem(g, 1.0, np.sin, JumpData(0.1, [1.0]), 0.5)
    with pytest.raises(ValueError, match=re.escape(f"data length {shape} does not match the grid's 5 nodes")):
        rk4_step(np.ones(shape), 0.0, 1e-3, prob, derivative_matrix(g, 1))


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


@pytest.mark.parametrize("speed,pinned", [(-0.5, True), (0.0, True), (0.5, False)])
def test_start_within_rounding_of_a_node_is_rejected_before_any_step(monkeypatch, speed, pinned):
    # node 4 is 0.0: moving toward it, or standing still, the first segment
    # stays within _bracket's rounding of the node; moving away it does not
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    assert g.nodes[4] == 0.0
    prob = AdvectionProblem(g, speed, lambda x: np.abs(np.asarray(x, dtype=float) - 1e-16),
                            JumpData(1e-16, [0.0, 2.0]), 0.5)
    D = derivative_matrix(g, 1)
    if pinned:
        monkeypatch.setattr(mol, "_segment_steps", lambda *a: pytest.fail("a step was taken"))
        with pytest.raises(ValueError, match="discontinuity at 1e-16 starts within rounding of a grid node"):
            evolve(prob, D, 0.01)
    else:
        assert np.all(np.isfinite(evolve(prob, D, 0.01).states))


@pytest.mark.parametrize("speed", [1.0, -1.0])
@pytest.mark.parametrize("past", [1e-15, 5e-14, 1e-13, 2e-13])
def test_crossing_within_rounding_of_t_final_lands_there(monkeypatch, speed, past):
    # node 4 is 0.0, which the step reaches at t = 0.1, just before t_final;
    # a step ending within rounding (1e-13) of the node is rejected before
    # any step, and one ending further past it lands at t_final, exact
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    xi0 = -0.1 * speed
    u0 = lambda x: np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5)
    prob = AdvectionProblem(g, speed, u0, JumpData(xi0, [1.0]), 0.1 + past)
    D = derivative_matrix(g, 1)
    if past < 1e-13:
        monkeypatch.setattr(mol, "_segment_steps", lambda *a: pytest.fail("a step was taken"))
        with pytest.raises(ValueError, match="discontinuity ends at .*, within rounding of a grid node"):
            evolve(prob, D, 0.01)
    else:
        res = evolve(prob, D, 0.01)
        assert res.times[-1] == prob.t_final
        assert res.error_linf[-1] <= 1e-15


# nodes 3 and 4 one ulp apart: the kink crosses node 4 within rounding of
# node 3, a segment with no bracket. Its bracket once came back inverted,
# and the run ended at t_final with final_linf 0.45
NEAR_TWINS = custom(-1, 1, [-1, -0.6, -0.2, 0.2, 0.2000000000000001, 0.6, 1])


def near_twins_problem():
    """A kink crossing both near-twin nodes at unit speed, and its D (m = 2)."""
    u0 = lambda x: np.abs(np.asarray(x, dtype=float) - 0.05)
    prob = AdvectionProblem(NEAR_TWINS, 1.0, u0, JumpData(0.05, [0.0, 2.0]), 0.5)
    return prob, derivative_matrix(NEAR_TWINS, 1, 2)


def test_a_crossing_within_rounding_of_a_node_is_rejected_before_any_step(monkeypatch):
    prob, D = near_twins_problem()
    monkeypatch.setattr(mol, "_segment_steps", lambda *a: pytest.fail("a step was taken"))
    with pytest.raises(ValueError, match=r"discontinuity crosses node 4 \(x = 0\.2000000000000001\) "
                                         "within rounding of a grid node"):
        evolve(prob, D, 1e-3)


def test_a_segment_between_nodes_within_rounding_has_no_bracket():
    # the segment from the crossing of node 3 to that of node 4 stays within
    # rounding of both: no bracket, whether evolve or rk4_step asks
    prob, D = near_twins_problem()
    t0, t1, node = mol._segments(prob)[1]
    assert node == 4
    with pytest.raises(RuntimeError, match="stays within rounding of a node"):
        mol._bracket(prob, t0, t1 - t0)
    with pytest.raises(RuntimeError, match="stays within rounding of a node"):
        rk4_step(prob.initial(NEAR_TWINS.nodes), t0, t1 - t0, prob, D)


@pytest.mark.parametrize("corrections", [True, False])
def test_evolve_brackets_each_segment_once_before_the_first_step(monkeypatch, corrections):
    # every bracket, and so every bracketing fault, comes before the powers
    # and the first segment's steps; none is asked for again
    calls = []
    bracket, powers, segment_steps = mol._bracket, mol._powers, mol._segment_steps
    monkeypatch.setattr(mol, "_bracket", lambda *a: calls.append(("bracket", *a[1:])) or bracket(*a))
    monkeypatch.setattr(mol, "_powers", lambda *a: calls.append(("powers",)) or powers(*a))
    monkeypatch.setattr(mol, "_segment_steps", lambda *a: calls.append(("steps",)) or segment_steps(*a))
    prob, g = kink_problem(N=24, xi0=-0.5, T=0.6, corrections=corrections)
    segments = mol._segments(prob)
    assert len(segments) == (5 if corrections else 1)  # four crossings, or none tracked
    evolve(prob, derivative_matrix(g, 1), 1e-3, output_every=50)
    assert calls == ([("bracket", t0, t1 - t0) for t0, t1, _ in segments] + [("powers",)]
                     + [("steps",)] * len(segments))


# CGL grids on [-1, 1] by N, each with its stencil size m (None: pseudospectral)
# and a dt at or below a quarter of its RK4 limit at unit speed
PATH_GRIDS = {8: (None, 0.02), 16: (None, 0.005), 24: (4, 0.003)}


@st.composite
def paths_ending_near_a_node(draw):
    """(N, profile, amplitude, speed, xi0, t_final, dt) of a path that reaches
    an interior node k ulps of time from t_final, k from a set holding 0."""
    N = draw(st.sampled_from(sorted(PATH_GRIDS)))
    nodes = chebyshev_gauss_lobatto(-1, 1, N).nodes
    gap = draw(st.integers(0, N - 1))
    xi0 = float(nodes[gap] + draw(st.floats(0.1, 0.9)) * (nodes[gap + 1] - nodes[gap]))
    target = float(nodes[draw(st.integers(1, N - 1))])
    speed = math.copysign(draw(st.sampled_from([1.0, 0.6])), target - xi0)
    t_cross = (target - xi0) / speed
    k = draw(st.sampled_from([0, 1, -1, 3, -3, 40, -40, 10**4, -10**4]))
    profile = draw(st.sampled_from(["kink", "step"]))
    amplitude = draw(st.sampled_from([1.0, -2.0]))
    return N, profile, amplitude, speed, xi0, t_cross + k * math.ulp(t_cross), PATH_GRIDS[N][1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(run=paths_ending_near_a_node())
# a step ending exactly on node 4, 0.0, once exited 0 with final_linf 0.5
@example(run=(8, "step", 1.0, 1.0, -0.1, 0.1, 0.01))
# a kink may end exactly on a node, which it leaves uncrossed
@example(run=(8, "kink", 1.0, 1.0, -0.1, 0.1, 0.01))
# a crossing within rounding of t_final once exited 3, too short a last
# segment to bracket, and then landed at t_final
@example(run=(8, "kink", 1.0, 1.0, -0.1, 0.10000000000005, 0.01))
@example(run=(8, "step", 1.0, 1.0, -0.1, 0.1 + 1e-15, 0.01))
@example(run=(8, "step", 1.0, -1.0, 0.1, 0.1 + 1e-15, 0.01))
@example(run=(8, "step", 1.0, 1.0, -0.1, 0.1 + 5e-14, 0.01))
@example(run=(8, "step", 1.0, -1.0, 0.1, 0.1 + 5e-14, 0.01))
@example(run=(8, "step", 1.0, 1.0, -0.1, 0.1 + 1e-13, 0.01))
@example(run=(8, "step", 1.0, -1.0, 0.1, 0.1 + 1e-13, 0.01))
@example(run=(8, "step", 1.0, 1.0, -0.1, 0.1 + 2e-13, 0.01))
@example(run=(8, "step", 1.0, -1.0, 0.1, 0.1 + 2e-13, 0.01))
# starts within rounding of node 4: toward it or standing still, and away
@example(run=(8, "kink", 1.0, -0.5, 1e-16, 0.5, 0.01))
@example(run=(8, "kink", 1.0, 0.0, 1e-16, 0.5, 0.01))
@example(run=(8, "kink", 1.0, 0.5, 1e-16, 0.5, 0.01))
def test_a_path_near_a_node_is_rejected_before_any_step_or_exact(run):
    """A run whose path ends (or starts) within rounding of a node either
    raises ValueError before any step or ends at rounding error; it never
    raises RuntimeError."""
    N, profile, amplitude, speed, xi0, t_final, dt = run
    g = chebyshev_gauss_lobatto(-1, 1, N)
    if profile == "kink":
        u0 = lambda x: amplitude * np.abs(np.asarray(x, dtype=float) - xi0)
        jd = JumpData(xi0, [0.0, 2.0 * amplitude])
    else:
        u0 = lambda x: amplitude * np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5)
        jd = JumpData(xi0, [amplitude])
    prob = AdvectionProblem(g, speed, u0, jd, t_final)
    D = derivative_matrix(g, 1, PATH_GRIDS[N][0])
    built = []
    segment_steps = mol._segment_steps
    with mock.patch.object(mol, "_segment_steps", lambda *a: built.append(a) or segment_steps(*a)):
        try:
            res = evolve(prob, D, dt)
        except ValueError as exc:
            assert "within rounding of a grid node" in str(exc)
            assert not built
            return
    assert res.times[-1] == t_final
    assert res.error_linf[-1] <= 1e-12 * abs(amplitude)


def test_evolve_checks_its_operator_once(monkeypatch):
    calls = []
    check = mol._require_operator
    monkeypatch.setattr(mol, "_require_operator", lambda *a: calls.append(a) or check(*a))
    prob, g = kink_problem(N=24, xi0=0.1, c=0.5, T=0.5)
    assert evolve(prob, derivative_matrix(g, 1), 1e-3).error_linf[-1] <= 1e-12
    assert len(calls) == 1


@pytest.mark.parametrize("D,message", [
    (derivative_matrix(chebyshev_gauss_lobatto(-3, 3, 24), 1), r"got order 1 on 25 nodes in \[-3, 3\]"),
    (derivative_matrix(equidistant(-1, 1, 24), 1), r"got order 1 on 25 nodes in \[-1, 1\]"),
    (derivative_matrix(chebyshev_gauss_lobatto(-1, 1, 24), 2), r"got order 2 on 25 nodes in \[-1, 1\]"),
], ids=["wider", "equidistant", "second"])
def test_an_operator_of_another_grid_or_order_is_rejected_before_any_step(monkeypatch, D, message):
    prob, g = kink_problem(N=24, xi0=0.1, c=0.5, T=0.5)
    monkeypatch.setattr(mol, "_segment_steps", lambda *a: pytest.fail("a step was taken"))
    message = "D must be a first-derivative matrix on the problem's grid; " + message
    with pytest.raises(ValueError, match=message):
        evolve(prob, D, 1e-3)
    with pytest.raises(ValueError, match=message):
        rk4_step(prob.initial(g.nodes), 0.0, 1e-3, prob, D)


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
        minus, plus = _pieces(state, JumpData(xi, [0.0, 2.0]), g)
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


_G8 = chebyshev_gauss_lobatto(-1, 1, 8)
_SMOOTH = AdvectionProblem(_G8, 1.0, np.sin, None, 0.1)
# public calls whose count argument is not integral; int() would truncate it,
# a float index would misindex, and output_every 1.5 would record every third step
NON_INTEGRAL_COUNTS = {
    "equidistant N": lambda: equidistant(0, 1, 4.5),
    "cgl N": lambda: chebyshev_gauss_lobatto(0, 1, 4.5),
    "node_index": lambda: one_sided_derivatives_at_node(_G8, _G8.nodes, 2.7, [0.0, 1.0, 0.0]),
    "output_every": lambda: evolve(_SMOOTH, derivative_matrix(_G8, 1), 1e-2, output_every=1.5),
    "derivative_matrix m": lambda: derivative_matrix(_G8, 1, 4.5),
    "derivative_matrix n": lambda: derivative_matrix(_G8, 1.0),
    "fd_weights n": lambda: fd_weights(_G8.nodes[:3], 0.0, 1.0),
}


@pytest.mark.parametrize("call", NON_INTEGRAL_COUNTS.values(), ids=NON_INTEGRAL_COUNTS)
def test_non_integral_counts_raise_type_error(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_integer_like_counts_keep_working():
    # operator.index accepts numpy integers and bools, as int indexing does
    assert equidistant(0, 1, np.int64(4)).nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert np.array_equal(derivative_matrix(_G8, True).entries, derivative_matrix(_G8, 1).entries)
    res = evolve(_SMOOTH, derivative_matrix(_G8, 1), 1e-2, output_every=np.int64(3))
    assert res.times.size == 5  # t = 0, steps 3, 6 and 9, and t_final


def test_nan_dt_is_not_positive():
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve(_SMOOTH, derivative_matrix(_G8, 1), math.nan)


@pytest.mark.parametrize("speed", [np.inf, -np.inf, np.nan])
def test_non_finite_speed_is_rejected(speed):
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    with pytest.raises(ValueError, match="advection speed must be finite"):
        AdvectionProblem(g, speed, lambda x: x, None, 0.1)


def test_initial_sampler_of_the_wrong_shape_is_rejected():
    g = chebyshev_gauss_lobatto(-1, 1, 8)
    prob = AdvectionProblem(g, 1.0, lambda x: np.zeros(3), None, 0.1)
    with pytest.raises(ValueError, match="initial sampler must return one value per node"):
        evolve(prob, derivative_matrix(g, 1), 1e-2)


def test_powers_past_the_float_range_are_rejected_before_any_step(monkeypatch):
    # -c D itself overflows at speed 1e308, and so would every step matrix
    # built from its powers; no warning leaks
    g = chebyshev_gauss_lobatto(-1, 1, 16)
    prob = AdvectionProblem(g, 1e308, lambda x: np.exp(-(np.asarray(x, dtype=float) / 0.3) ** 2), None, 5e-324)
    monkeypatch.setattr(mol, "_segment_steps", lambda *a: pytest.fail("a step was taken"))
    with pytest.raises(ValueError, match="speed 1e\\+308 is too large for the grid of N = 16"):
        evolve(prob, derivative_matrix(g, 1), 1e-3)


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(2, 64),
    family=st.sampled_from(["cgl", "equidistant"]),
    banded=st.booleans(),
    M=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
# one jump: the forcing must come from R_0 alone, whatever e is
@example(N=16, family="cgl", banded=False, M=0, seed=0)
@example(N=16, family="equidistant", banded=True, M=0, seed=1)
def test_segment_step_matches_four_stage_recursion(N, family, banded, M, seed):
    rng = np.random.default_rng(seed)
    g = chebyshev_gauss_lobatto(-1, 1, N) if family == "cgl" else equidistant(-1, 1, N)
    D = derivative_matrix(g, 1, int(rng.integers(1, N + 1)) if banded else N)
    k = int(rng.integers(0, N))
    lo, hi = g.nodes[k], g.nodes[k + 1]
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    xi0 = lo + rng.uniform(0.1, 0.9) * (hi - lo)
    J = rng.standard_normal(M + 1) * 10.0 ** rng.uniform(-2, 2, M + 1)
    prob = AdvectionProblem(g, c, np.sin, JumpData(xi0, J), 1e-3 * (hi - lo))
    # the path stays strictly inside the bracket over [t, t + dt], in
    # nsub steps that keep h |c| ||D|| <= 1
    u0, u1 = sorted(rng.uniform(0.01, 0.99, 2))
    norm = np.abs(D.entries).sum(axis=1).max()
    nsub = 5
    h = min((u1 - u0) * (hi - lo) / abs(c) / nsub, 1 / (abs(c) * norm))
    t = ((lo if c > 0 else hi) - xi0) / c + u0 * (hi - lo) / abs(c)
    dt = nsub * h
    h = dt / nsub
    E, forcing = mol._segment_steps(prob, D, t, dt, nsub, mol._powers(prob, D), mol._bracket(prob, t, dt))
    F = forcing(0, nsub)
    assert len(F) == nsub
    rhs = lambda tt, y: -c * corrected_derivative(D, y, JumpData(xi0 + c * tt, J))
    y = rng.uniform(-1, 1, N + 1) * 10.0 ** rng.uniform(-2, 2)
    for j in rng.integers(0, nsub, 3):
        tj = t + j * h
        k1 = rhs(tj, y)
        k2 = rhs(tj + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(tj + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(tj + h, y + h * k3)
        want = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        g_max = max(np.abs(jump_weights(JumpData(xi0 + c * tt, J), g)).max() for tt in (tj, tj + h))
        bound = np.finfo(float).eps * (np.abs(y).max() + 16 * h * abs(c) * norm * (np.abs(y).max() + g_max))
        assert np.abs(y + (E @ y + F[j]) - want).max() <= bound


@pytest.mark.parametrize("profile,J", [("kink", [0.0, 2.0]), ("step", [1.0])])
def test_corrected_evolve_builds_each_segment_operator_once(monkeypatch, profile, J):
    # M + 1 corrected derivatives per crossing-free segment, none per stage
    calls = []
    real = mol.corrected_derivative
    monkeypatch.setattr(mol, "corrected_derivative", lambda *a: calls.append(a) or real(*a))
    g = chebyshev_gauss_lobatto(-1, 1, 24)
    xi0, T = -0.5, 0.6
    shape = np.abs if profile == "kink" else lambda x: np.heaviside(x, 0.5)
    prob = AdvectionProblem(g, 1.0, lambda x: shape(np.asarray(x, dtype=float) - xi0), JumpData(xi0, J), T)
    K = np.count_nonzero((g.nodes > xi0) & (g.nodes < xi0 + T))
    assert K >= 3
    D = derivative_matrix(g, 1)
    for dt in (1e-3, 7e-3):
        calls.clear()
        evolve(prob, D, dt, output_every=50)
        assert len(calls) == (K + 1) * len(J)


def test_forcing_blocks_cover_every_step_once(monkeypatch):
    # segments far longer than a block of forcing rows step exactly as with
    # one block per segment
    prob, g = kink_problem(N=24, xi0=-0.45, T=0.3)
    D = derivative_matrix(g, 1)
    whole = evolve(prob, D, 1e-3, output_every=7)
    monkeypatch.setattr(mol, "_FORCING_BLOCK", 5)
    blocked = evolve(prob, D, 1e-3, output_every=7)
    np.testing.assert_array_equal(blocked.times, whole.times)
    assert np.abs(blocked.states - whole.states).max() <= 1e-14
    assert whole.error_linf[-1] <= 1e-13


def stage_by_stage_step(problem, D):
    """One RK4 step of -c D y, written out stage by stage."""
    rhs = lambda y: -problem.speed * apply(D, y)

    def step(state, t, h):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        return state + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    return step


def plain_rk4_states(problem, dt, step):
    """States after every step of the uncorrected method-of-lines loop:
    step(state, t, h) at a time, then the exact inflow value."""
    nodes = problem.grid.nodes
    state = np.asarray(problem.initial(nodes), dtype=float)
    nsub = max(1, math.ceil(problem.t_final / dt - 1e-12))
    h = problem.t_final / nsub
    inflow = 0 if problem.speed > 0 else problem.grid.N
    states = [state.copy()]
    for k in range(nsub):
        state = step(state, k * h, h)
        t_new = problem.t_final if k == nsub - 1 else (k + 1) * h
        state[inflow] = problem.initial(nodes[inflow] - problem.speed * t_new)
        states.append(state.copy())
    return np.array(states)


@pytest.mark.parametrize("speed", [1.3, -0.7])
@pytest.mark.parametrize("profile", ["kink", "gaussian"])
def test_uncorrected_evolve_is_the_plain_rk4_loop_bitwise(profile, speed):
    if profile == "kink":
        prob, g = kink_problem(N=20, c=speed, xi0=-0.3 * np.sign(speed), T=0.4, corrections=False)
    else:
        g = chebyshev_gauss_lobatto(-1, 1, 20)
        u0 = lambda x: np.exp(-(((np.asarray(x, dtype=float) - 0.1) / 0.3) ** 2))
        prob = AdvectionProblem(g, speed, u0, None, 0.4)
    D = derivative_matrix(g, 1)
    res = evolve(prob, D, 2e-3, output_every=1)
    one_shot = lambda state, t, h: rk4_step(state, t, h, prob, D)
    assert res.states.tobytes() == plain_rk4_states(prob, 2e-3, one_shot).tobytes()
    # one step matrix reassociates the stages: rounding apart, the same RK4
    want = plain_rk4_states(prob, 2e-3, stage_by_stage_step(prob, D))
    assert np.abs(res.states - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()


@pytest.mark.parametrize("family,N,m,c", [("cgl", 24, None, 1.0), ("cgl", 32, None, -0.8),
                                          ("equidistant", 40, 6, 1.3)])
def test_piecewise_cubic_advects_to_rounding_with_three_jump_orders(family, N, m, c):
    # distinct cubics on each side: every Taylor weight e^p / p! up to p = 3
    # enters the segment operator, and the corrected scheme is exact in space
    left = np.polynomial.Polynomial([1.0, -0.5, 0.8, 0.5])
    right = np.polynomial.Polynomial([0.2, 1.0, -0.6, -0.7])
    xi0, T = (-0.33 if c > 0 else 0.27), 0.5
    J = [(right - left).deriv(p)(xi0) for p in range(4)]
    assert min(abs(j) for j in J) > 0.4
    g = chebyshev_gauss_lobatto(-1, 1, N) if family == "cgl" else equidistant(-1, 1, N)
    u0 = lambda x: np.where(np.asarray(x, dtype=float) < xi0, left(x), right(x))
    prob = AdvectionProblem(g, c, u0, JumpData(xi0, J), T)
    assert len(mol._segments(prob)) >= 4  # three crossings
    res = evolve(prob, derivative_matrix(g, 1, m), 1e-3, output_every=100)
    assert res.error_linf.max() <= 1e-9


def rk4_dt_limit(D, speed):
    """Largest dt for which the RK4 step of -c D, followed by the inflow
    overwrite, has spectral radius at most 1 on the other nodes.

    The inflow node is reset after the step, not at each stage, so its row
    and column drop out of the step matrix, not of D: this limit is several
    times smaller than the one from the eigenvalues of the reduced D."""
    keep = slice(1, None) if speed > 0 else slice(None, -1)
    A = -speed * D.entries
    I = np.eye(A.shape[0])

    def stable(h):
        Z = h * A
        S = I + Z @ (I + Z @ (I / 2 + Z @ (I / 6 + Z / 24)))
        return np.max(np.abs(np.linalg.eigvals(S[keep, keep]))) <= 1.0 + 1e-12

    # scan for the first unstable step, then bisect between it and the
    # last stable one
    hs = np.linspace(0.0, 3.0 / np.max(np.abs(np.linalg.eigvals(A[keep, keep]))), 301)
    k = next(k for k, h in enumerate(hs) if not stable(h))
    lo, hi = hs[k - 1], hs[k]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return float(lo)


@pytest.mark.parametrize("family,N,m", [("cgl", 24, None), ("cgl", 48, None), ("cgl", 40, 6),
                                        ("equidistant", 48, 2)])
@pytest.mark.parametrize("speed", [1.4, -0.8])
def test_corrected_kink_stays_at_rounding_at_half_the_stability_limit(family, N, m, speed):
    # the benchmark's advect shapes: a rounding regression in the stepper
    # shows here long before it reaches the benchmark's 1e-10 tolerance
    g = chebyshev_gauss_lobatto(-1, 1, N) if family == "cgl" else equidistant(-1, 1, N)
    amp, xi0 = 1.7, -0.55 * np.sign(speed)
    u0 = lambda x: amp * np.abs(np.asarray(x, dtype=float) - xi0)
    prob = AdvectionProblem(g, speed, u0, JumpData(xi0, [0.0, 2.0 * amp]), 1.2 / abs(speed))
    D = derivative_matrix(g, 1, m)
    res = evolve(prob, D, 0.5 * rk4_dt_limit(D, speed), output_every=100)
    assert len(mol._segments(prob)) >= 6  # five crossings
    assert res.error_linf[-1] <= 4e-12 * amp


@pytest.mark.parametrize("family,N,m", [("cgl", 24, None), ("cgl", 48, None), ("cgl", 128, None),
                                        ("cgl", 40, 6), ("equidistant", 48, 2)])
@pytest.mark.parametrize("speed", [1.4, -0.8])
def test_step_matrix_from_powers_matches_the_four_stages(family, N, m, speed):
    # E = h A + h^2/2 A^2 + h^3/6 A^3 + h^4/24 A^4 from powers built once,
    # against the RK4 stages of A run on the identity, up to the stability limit
    g = chebyshev_gauss_lobatto(-1, 1, N) if family == "cgl" else equidistant(-1, 1, N)
    D = derivative_matrix(g, 1, m)
    prob = AdvectionProblem(g, speed, np.sin, None, 1.0)
    A = -speed * D.entries
    eps = np.finfo(float).eps
    off = ~np.eye(N + 1, dtype=bool)
    for h in rk4_dt_limit(D, speed) * np.logspace(-3, 0, 7):
        E, _ = mol._segment_steps(prob, D, 0.0, h, 1, mol._powers(prob, D), None)
        diff = np.abs(E - mol._rk4_increment(A, h, np.eye(N + 1), 0.0, 0.0, 0.0))
        Z = h * np.abs(A)
        Z2 = Z @ Z
        scale = eps * (Z + Z2 / 2 + Z2 @ Z / 6 + Z2 @ Z2 / 24)
        assert np.all(diff[off] <= 16 * scale[off])
        # the diagonal absorbs the rounding of its row's sum
        assert np.all(np.diag(diff) <= 4 * scale.sum(axis=1))


@pytest.mark.parametrize("corrections", [True, False])
def test_evolve_builds_the_powers_of_the_operator_once(monkeypatch, corrections):
    # one set of powers of -c D per run, whatever the crossings and dt; a
    # segment's only products with A are the RK4 stages of its 3 (M + 1)
    # forcing columns, none on an (N+1) x (N+1) block
    powers, widths = [], []
    real_powers, real_increment = mol._powers, mol._rk4_increment
    monkeypatch.setattr(mol, "_powers", lambda *a: powers.append(a) or real_powers(*a))
    monkeypatch.setattr(mol, "_rk4_increment",
                        lambda A, h, y, *b: widths.append(y.shape[1]) or real_increment(A, h, y, *b))
    prob, g = kink_problem(N=24, xi0=-0.5, T=0.6, corrections=corrections)
    K = np.count_nonzero((g.nodes > -0.5) & (g.nodes < 0.1))
    assert K >= 3
    D = derivative_matrix(g, 1)
    for dt in (1e-3, 7e-3):
        powers.clear()
        widths.clear()
        evolve(prob, D, dt, output_every=50)
        assert len(powers) == 1
        assert widths == ([3 * 2] * (K + 1) if corrections else [])


def replayed_steps(problem, D, dt):
    """(end time, state before, state after, step index in its segment,
    segment steps) of every step, taken one at a time: rk4_step with the
    segment's step matrix and forcing row, the J_0 move of a crossed node,
    then the inflow write. A segment's end times and inflow values are
    built all at once, its forcing rows one block of steps at a time, as
    evolve builds them."""
    nodes, c = problem.grid.nodes, problem.speed
    inflow = 0 if c > 0 else problem.grid.N
    state = np.asarray(problem.initial(nodes), dtype=float)
    for t0, t1, node in mol._segments(problem):
        nsub = max(1, math.ceil((t1 - t0) / dt - 1e-12))
        h = (t1 - t0) / nsub
        E, forcing = mol._segment_steps(problem, D, t0, t1 - t0, nsub, mol._powers(problem, D),
                                        mol._bracket(problem, t0, t1 - t0))
        rows = [f for k0 in range(0, nsub, mol._FORCING_BLOCK)
                for f in forcing(k0, min(k0 + mol._FORCING_BLOCK, nsub))]
        t_ends = t0 + np.arange(1, nsub + 1) * h
        t_ends[-1] = t1
        inflow_values = problem.initial(nodes[inflow] - c * t_ends)
        for k, f in enumerate(rows):
            new = rk4_step(state, t0 + k * h, h, problem, D, (E, f))
            if k == nsub - 1 and node is not None:
                new[node] -= np.sign(c) * problem.jump0.jumps[0]
            new[inflow] = inflow_values[k]
            yield float(t_ends[k]), state, new, k, nsub
            state = new


def first_failure(problem, D, dt):
    """(time, max |u| before it, step index in its segment, segment steps)
    of the first non-finite state, checking after every replayed step."""
    for t_end, before, after, k, nsub in replayed_steps(problem, D, dt):
        if not np.isfinite(after).all():
            return t_end, float(np.max(np.abs(before))), k, nsub


@pytest.mark.parametrize("profile,c,xi0,dt,T", [("gaussian", 1.0, 0.0, 0.1, 40.0),
                                                ("kink", 0.3, -0.95, 0.1, 6.3),
                                                ("kink", -0.5, 0.9, 0.05, 3.4)])
def test_failure_found_at_segment_end_is_the_first_failing_step(profile, c, xi0, dt, T):
    # evolve checks finiteness once per segment and replays a failed one; it
    # must name the step, and the state before it, that a check after every
    # step finds, here inside a multi-step segment
    g = chebyshev_gauss_lobatto(-1, 1, 24)
    if profile == "gaussian":
        prob = AdvectionProblem(g, c, lambda x: np.exp(-((np.asarray(x, dtype=float) / 0.3) ** 2)), None, T)
    else:
        amp = 1e300
        u0 = lambda x: amp * np.abs(np.asarray(x, dtype=float) - xi0)
        prob = AdvectionProblem(g, c, u0, JumpData(xi0, [0.0, 2 * amp]), T)
    D = derivative_matrix(g, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        t_fail, max_before, k, nsub = first_failure(prob, D, dt)
        with pytest.raises(RuntimeError) as err:
            evolve(prob, D, dt, output_every=7)
    assert 0 <= k < nsub - 1
    assert f"non-finite at t = {t_fail} (max |u| before failure {max_before:.3e})" in str(err.value)


def advected(case, speed=1.3, T=0.5):
    """(problem, D) of one corrected test run: a kink on a CGL grid with
    the pseudospectral D or on an equidistant grid with a banded one, or a
    step on a CGL grid."""
    family, m, profile = {"cgl-kink": ("cgl", None, "kink"), "equidistant-banded-kink": ("equidistant", 2, "kink"),
                          "cgl-step": ("cgl", None, "step")}[case]
    g = chebyshev_gauss_lobatto(-1, 1, 24) if family == "cgl" else equidistant(-1, 1, 40)
    xi0, amp = -0.43 * np.sign(speed), 1.7
    if profile == "kink":
        u0, J = lambda x: amp * np.abs(np.asarray(x, dtype=float) - xi0), [0.0, 2.0 * amp]
    else:
        u0, J = lambda x: amp * np.heaviside(np.asarray(x, dtype=float) - xi0, 0.5), [amp]
    return AdvectionProblem(g, speed, u0, JumpData(xi0, J), T), derivative_matrix(g, 1, m)


@pytest.mark.parametrize("block", [mol._FORCING_BLOCK, 7])
@pytest.mark.parametrize("speed", [1.3, -0.7])
@pytest.mark.parametrize("case", ["cgl-kink", "equidistant-banded-kink", "cgl-step"])
def test_corrected_evolve_is_the_step_by_step_replay_bitwise(monkeypatch, case, speed, block):
    # evolve's loop, its blocks of end times and inflow values and its
    # in-place step add nothing to and reorder nothing in the arithmetic of
    # one rk4_step after another
    monkeypatch.setattr(mol, "_FORCING_BLOCK", block)
    prob, D = advected(case, speed)
    assert len(mol._segments(prob)) >= 4  # three crossings
    res = evolve(prob, D, 2e-3, output_every=1)
    steps = list(replayed_steps(prob, D, 2e-3))
    assert res.times.tobytes() == np.array([0.0] + [t for t, *_ in steps]).tobytes()
    assert res.states.tobytes() == np.array([steps[0][1]] + [after for _, _, after, _, _ in steps]).tobytes()
    assert res.error_linf[-1] <= 1e-11


@pytest.mark.parametrize("case", ["cgl-kink", "equidistant-banded-kink", "cgl-step", "gaussian"])
def test_error_is_the_per_state_max_error_bitwise(case):
    # one sampler call over every recorded state gives each state's own
    # max |s - initial(x - c t)|, bit for bit
    if case == "gaussian":
        g = chebyshev_gauss_lobatto(-1, 1, 20)
        u0 = lambda x: np.exp(-(((np.asarray(x, dtype=float) - 0.1) / 0.3) ** 2))
        prob, D = AdvectionProblem(g, -0.7, u0, None, 0.4), derivative_matrix(g, 1)
    else:
        prob, D = advected(case)
    res = evolve(prob, D, 2e-3, output_every=9)
    want = [np.max(np.abs(s - np.asarray(prob.initial(prob.grid.nodes - prob.speed * t), dtype=float)))
            for t, s in zip(res.times, res.states)]
    assert res.error_linf.tobytes() == np.array(want).tobytes()
    assert res.error_linf.max() > 0.0


def test_inflow_values_are_sampled_one_block_at_a_time(monkeypatch):
    # a segment's end times and inflow values are built per block of steps,
    # so memory stays O(block) however small dt is
    prob, g = kink_problem(N=24, xi0=-0.45, T=0.3)
    sizes, initial = [], prob.initial
    prob = dataclasses.replace(prob, initial=lambda x: sizes.append(np.size(x)) or initial(x))
    monkeypatch.setattr(mol, "_FORCING_BLOCK", 5)
    res = evolve(prob, derivative_matrix(g, 1), 1e-3, output_every=1)
    # the first call samples the nodes, the last the exact values of every recorded state
    assert sizes[0] == g.N + 1
    assert sizes[-1] == res.times.size * (g.N + 1)
    assert max(sizes[1:-1]) <= 5
    assert sum(sizes[1:-1]) == res.times.size - 1  # one inflow value per step


def test_non_finite_initial_profile_is_rejected_before_any_step(monkeypatch):
    # a kink of amplitude 1.7e308 overflows at the nodes farther than 1.06
    # from xi0; the first of them is named, and no warning leaks
    g = chebyshev_gauss_lobatto(-1, 1, 24)
    prob = AdvectionProblem(g, 0.3, lambda x: 1.7e308 * np.abs(np.asarray(x, dtype=float) + 0.95), None, 1.0)
    monkeypatch.setattr(mol, "_segment_steps", lambda *a: pytest.fail("a step was taken"))
    first = int(np.flatnonzero(g.nodes + 0.95 > sys.float_info.max / 1.7e308)[0])
    with pytest.raises(ValueError, match=rf"initial profile is not finite at node {first} \(x = "):
        evolve(prob, derivative_matrix(g, 1), 1e-3)
