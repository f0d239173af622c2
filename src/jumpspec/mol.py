"""Linear advection with a moving known discontinuity, via the method of lines.

Space is discretized with a (possibly jump-corrected) derivative matrix and
time with classical fourth-order Runge-Kutta. The discontinuity travels at
the advection speed with its derivative jumps frozen, so its node-crossing
times are known exactly in advance; the stepper lands on each crossing,
moves the crossed node to the branch of its new side, and restarts just
after it, which keeps the right-hand side smooth in time within every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffmat import DerivMatrix, apply
from .grid import Grid
from .jumps import JumpData, corrected_derivative

__all__ = ["AdvectionProblem", "EvolutionResult", "rk4_step", "evolve"]


@dataclass(frozen=True)
class AdvectionProblem:
    """Setup for u_t + c u_x = 0 on a fixed grid.

    initial samples u(x, 0) (vectorized over x). jump0 describes the initial
    discontinuity; pass None (or empty jumps) to run the uncorrected smooth
    pipeline. The discontinuity path xi0 + c t must stay strictly inside the
    interval up to t_final and must not start on a node. exact(x, t), when
    given, supplies the inflow value; when omitted the inflow node is left
    untouched.
    """

    grid: Grid
    speed: float
    initial: Callable
    jump0: JumpData | None
    t_final: float
    exact: Callable | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.speed):
            raise ValueError("advection speed must be finite")
        if not (np.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError("t_final must be positive")
        jd = self.jump0
        if jd is not None and jd.order >= 0:
            for t in (0.0, self.t_final):
                xi = jd.xi + self.speed * t
                if not self.grid.a < xi < self.grid.b:
                    raise ValueError("discontinuity path leaves the open interval before t_final")
            if np.any(self.grid.nodes == jd.xi):
                raise ValueError("initial discontinuity must not sit on a node")


@dataclass(frozen=True)
class EvolutionResult:
    """Recorded trajectory: nodal states, discontinuity path and errors.

    states[k] holds the N+1 nodal values at times[k]; xi_path[k] is the
    discontinuity location then (NaN when no jump is tracked); error_linf is
    the max-norm error against the problem's exact solution, or None when no
    exact solution was supplied.
    """

    times: np.ndarray
    states: np.ndarray
    xi_path: np.ndarray
    error_linf: np.ndarray | None


def _bracket(problem: AdvectionProblem, t: float, dt: float) -> tuple[float, float]:
    """Node-free open interval containing the discontinuity path over one step.

    The path endpoints may touch the bracketing nodes (that is the crossing
    the stepper lands on), but no node may lie strictly inside the swept
    range. Endpoints within a few roundings of a node count as touching it,
    since accumulated step times reproduce crossing instants only to ulp
    accuracy.
    """
    nodes = problem.grid.nodes
    x0 = problem.jump0.xi + problem.speed * t
    x1 = problem.jump0.xi + problem.speed * (t + dt)
    lo_x, hi_x = (x0, x1) if x0 <= x1 else (x1, x0)
    tol = 1e-13 * max(1.0, abs(lo_x), abs(hi_x))
    i = int(np.searchsorted(nodes, lo_x + tol, side="right")) - 1
    j = int(np.searchsorted(nodes, hi_x - tol, side="left"))
    if j - i >= 2:
        raise RuntimeError(
            f"discontinuity crosses a node inside the step [{t}, {t + dt}]; reduce dt or split"
        )
    if j == i:
        raise RuntimeError(
            f"discontinuity is pinned on a node for the whole step starting at t = {t}"
        )
    return float(nodes[i]), float(nodes[j])


def rk4_step(state, t: float, dt: float, problem: AdvectionProblem, D: DerivMatrix) -> np.ndarray:
    """One classical Runge-Kutta step from t to t + dt.

    The discontinuity may touch a node only at the step endpoints; stage
    locations that land exactly on a bracketing node are nudged one ulp into
    the open interval, which puts every node on a definite side consistently
    with the direction of motion.
    """
    state = np.asarray(state, dtype=float)
    jd0 = problem.jump0
    if jd0 is None or jd0.order < 0:
        def rhs_at(tt: float, y: np.ndarray) -> np.ndarray:
            return -problem.speed * apply(D, y)
    else:
        lo, hi = _bracket(problem, t, dt)
        lo_in = np.nextafter(lo, hi)
        hi_in = np.nextafter(hi, lo)

        def rhs_at(tt: float, y: np.ndarray) -> np.ndarray:
            xi = min(max(jd0.xi + problem.speed * tt, lo_in), hi_in)
            return -problem.speed * corrected_derivative(D, y, JumpData(xi, jd0.jumps))

    k1 = rhs_at(t, state)
    k2 = rhs_at(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = rhs_at(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = rhs_at(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _crossings(problem: AdvectionProblem) -> list[tuple[float, int]]:
    """(time, node index) of every node the discontinuity crosses, in time order."""
    jd = problem.jump0
    if jd is None or jd.order < 0 or problem.speed == 0.0:
        return []
    times = (problem.grid.nodes - jd.xi) / problem.speed
    inside = np.flatnonzero((times > 0.0) & (times < problem.t_final))
    return sorted(zip(times[inside].tolist(), inside.tolist()))


def _inflow_value(problem: AdvectionProblem, t: float):
    if problem.exact is not None:
        idx = 0 if problem.speed > 0 else problem.grid.N
        return problem.exact(problem.grid.nodes[idx], t)
    return None


def evolve(problem: AdvectionProblem, D: DerivMatrix, dt: float, output_every: int = 1) -> EvolutionResult:
    """Integrate the problem from t = 0 to t_final.

    Time is partitioned at the exact node-crossing times of the
    discontinuity; each segment is covered with uniform Runge-Kutta steps of
    size at most dt, landing exactly on the crossing before restarting on
    the far side. A crossed node then lies on the other side of the
    discontinuity, so its value moves to that side's branch: the two
    branches differ there by exactly J_0, which leaves kinks untouched.
    After every step the inflow node is overwritten with the boundary
    value. States are recorded at t = 0, every output_every-th
    step, and t_final. Stability is the caller's business: keep
    |c| * dt * (spectral radius of D) within the explicit stability region,
    roughly dt <= 2.8 / (|c| * max |eigenvalue|) for this scheme.

    Raises RuntimeError with a diagnostic if the state stops being finite.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if output_every < 1:
        raise ValueError("output_every must be at least 1")
    grid = problem.grid
    state = np.asarray(problem.initial(grid.nodes), dtype=float)
    if state.shape != grid.nodes.shape:
        raise ValueError("initial sampler must return one value per node")

    crossings = _crossings(problem)
    boundaries = [0.0, *(t for t, _ in crossings), problem.t_final]
    crossed = [node for _, node in crossings] + [None]
    track_xi = problem.jump0 is not None

    times = [0.0]
    states = [state.copy()]
    steps_done = 0
    # an unstable dt overflows on the way to the non-finite check below,
    # which reports it; numpy's own overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, node in zip(boundaries[:-1], boundaries[1:], crossed):
            nsub = max(1, math.ceil((t1 - t0) / dt - 1e-12))
            h = (t1 - t0) / nsub
            for k in range(nsub):
                t = t0 + k * h
                state = rk4_step(state, t, h, problem, D)
                t_new = t1 if k == nsub - 1 else t0 + (k + 1) * h
                if k == nsub - 1 and node is not None:
                    state[node] -= np.sign(problem.speed) * problem.jump0.jumps[0]
                bc = _inflow_value(problem, t_new)
                if bc is not None and problem.speed != 0.0:
                    state[0 if problem.speed > 0 else grid.N] = bc
                if not np.all(np.isfinite(state)):
                    raise RuntimeError(
                        f"state became non-finite at t = {t_new} (max |u| before failure "
                        f"{np.max(np.abs(states[-1])):.3e}); likely an unstable dt"
                    )
                steps_done += 1
                if steps_done % output_every == 0 or t_new == problem.t_final:
                    times.append(t_new)
                    states.append(state.copy())

    if times[-1] != problem.t_final:
        times.append(problem.t_final)
        states.append(state.copy())

    times_arr = np.asarray(times)
    states_arr = np.asarray(states)
    if track_xi:
        xi_path = problem.jump0.xi + problem.speed * times_arr
    else:
        xi_path = np.full_like(times_arr, np.nan)
    err = None
    if problem.exact is not None:
        err = np.array(
            [np.max(np.abs(s - np.asarray(problem.exact(grid.nodes, t), dtype=float)))
             for t, s in zip(times_arr, states_arr)]
        )
    return EvolutionResult(times_arr, states_arr, xi_path, err)
