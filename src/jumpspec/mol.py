"""Linear advection with a moving known discontinuity, via the method of lines.

Space is discretized with a (possibly jump-corrected) derivative matrix and
time with classical fourth-order Runge-Kutta. The discontinuity travels at
the advection speed with its derivative jumps frozen, so its node-crossing
times are known exactly in advance; the stepper lands on each crossing,
moves the crossed node to the branch of its new side, and restarts just
after it, which keeps the right-hand side smooth in time within every step.

Between two crossings every node stays on its side and only xi moves, so
the corrected operator is built once per crossing-free segment (see
_stage_rhs): M + 1 corrected derivatives of zero data with the shifted
jumps J[p:] at the bracket midpoint. A Taylor expansion in xi turns them
into the exact correction at any xi in the bracket. The segment stacks the
M + 1 columns to the right of the derivative matrix once, so a corrected
stage costs one product of that (N+1) x (N+M+2) matrix with the state
extended by the Taylor weights e^p / p!, as a plain stage costs one
product with D, instead of rebuilding jump data and piece arrays per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffmat import DerivMatrix
from .grid import Grid
from .jumps import JumpData, corrected_derivative

__all__ = ["AdvectionProblem", "EvolutionResult", "rk4_step", "evolve"]


@dataclass(frozen=True)
class AdvectionProblem:
    """Setup for u_t + c u_x = 0 on a fixed grid.

    initial samples u(x, 0) (vectorized over x). jump0 describes the initial
    discontinuity; pass None (or empty jumps) to run the uncorrected smooth
    pipeline. The discontinuity path xi0 + c t must stay strictly inside the
    interval up to t_final and must not start on a node. The solution is
    initial(x - c t), which supplies the inflow value and the errors.
    """

    grid: Grid
    speed: float
    initial: Callable
    jump0: JumpData | None
    t_final: float

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
    discontinuity location then (NaN when no jump is tracked); error_linf[k]
    is the max-norm error against the translated initial profile then.
    """

    times: np.ndarray
    states: np.ndarray
    xi_path: np.ndarray
    error_linf: np.ndarray


def _bracket(problem: AdvectionProblem, t: float, dt: float) -> tuple[float, float]:
    """Node-free open interval containing the discontinuity path over [t, t + dt].

    evolve asks once per crossing-free segment, rk4_step alone once per step.

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


def _stage_rhs(problem: AdvectionProblem, D: DerivMatrix, t: float, dt: float) -> Callable:
    """Right-hand side rhs(tt, y) = -c u_x of the semi-discrete system for t <= tt <= t + dt.

    Without jumps this is the plain -c D y. With jumps, no node crosses the
    discontinuity in [t, t + dt] (_bracket enforces it), so only xi moves,
    inside a node-free bracket (lo, hi). Taylor-expanding the jump series
    about the midpoint m gives, with e = m - xi and z = -0.0 at every node,

        corrected_derivative(D, y, JumpData(xi, J)) = D y + sum_p e^p / p! R_p,
        R_p = corrected_derivative(D, z, JumpData(m, J[p:])),

    exactly, since the series is a polynomial in xi and every node keeps its
    side. The M + 1 columns R_p are built and stacked to the right of D once
    here, one hstack per segment; a stage is then one product of that
    (N+1) x (N+M+2) matrix with [y; 1, e, e^2/2, ..., e^M/M!], held in a
    buffer reused across stages, and |e| <= (hi - lo) / 2 keeps the sum well
    conditioned. Without jumps the matrix is D itself and the vector is y.
    Stage locations that land exactly on a bracketing node are nudged one
    ulp into the open interval, which puts every node on a definite side
    consistently with the direction of motion.
    """
    c, jd = problem.speed, problem.jump0
    A = D.entries  # stages pass float vectors of the grid's length, which apply would re-check
    if jd is None or jd.order < 0:
        return lambda tt, y: -c * (A @ y)
    lo, hi = _bracket(problem, t, dt)
    mid = 0.5 * (lo + hi)
    n, M = D.grid.N + 1, jd.order
    zero = np.full(n, -0.0)
    R = [corrected_derivative(D, zero, JumpData(mid, jd.jumps[p:])) for p in range(M + 1)]
    A = np.hstack([A, np.column_stack(R)])
    lo_in, hi_in = float(np.nextafter(lo, hi)), float(np.nextafter(hi, lo))
    xi0 = float(jd.xi)
    z = np.empty(n + M + 1)
    z[n] = 1.0

    def rhs(tt: float, y: np.ndarray) -> np.ndarray:
        e = mid - min(max(xi0 + c * tt, lo_in), hi_in)
        z[:n] = y
        w = 1.0
        for p in range(1, M + 1):
            w *= e / p
            z[n + p] = w
        return -c * (A @ z)

    return rhs


def rk4_step(state, t: float, dt: float, problem: AdvectionProblem, D: DerivMatrix,
             rhs: Callable | None = None) -> np.ndarray:
    """One classical Runge-Kutta step from t to t + dt.

    rhs(tt, y) is the semi-discrete right-hand side; by default it is built
    for this one step by _stage_rhs. evolve passes the one it built for the
    whole crossing-free segment that contains the step. The discontinuity
    may touch a node only at the step endpoints.
    """
    state = np.asarray(state, dtype=float)
    if rhs is None:
        rhs = _stage_rhs(problem, D, t, dt)
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = rhs(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _crossings(problem: AdvectionProblem) -> list[tuple[float, int]]:
    """(time, node index) of every node the discontinuity crosses, in time order."""
    jd = problem.jump0
    if jd is None or jd.order < 0 or problem.speed == 0.0:
        return []
    times = (problem.grid.nodes - jd.xi) / problem.speed
    inside = np.flatnonzero((times > 0.0) & (times < problem.t_final))
    return sorted(zip(times[inside].tolist(), inside.tolist()))


def evolve(problem: AdvectionProblem, D: DerivMatrix, dt: float, output_every: int = 1) -> EvolutionResult:
    """Integrate the problem from t = 0 to t_final.

    Time is partitioned at the exact node-crossing times of the
    discontinuity; each segment is covered with uniform Runge-Kutta steps of
    size at most dt, landing exactly on the crossing before restarting on
    the far side. A crossed node then lies on the other side of the
    discontinuity, so its value moves to that side's branch: the two
    branches differ there by exactly J_0, which leaves kinks untouched.
    After every step the inflow node is overwritten with the exact
    solution initial(x - c t), sampled once per segment at all of its step
    end times. States are recorded at t = 0, every output_every-th step,
    and t_final. Stability is the caller's business: keep |c| * dt *
    (spectral radius of D) within the explicit stability region, roughly
    dt <= 2.8 / (|c| * max |eigenvalue|) for this scheme.

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
    exact = lambda x, t: problem.initial(x - problem.speed * t)
    inflow = 0 if problem.speed > 0 else grid.N

    times = [0.0]
    states = [state.copy()]
    steps_done = 0
    # an unstable dt overflows on the way to the non-finite check below,
    # which reports it; numpy's own overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, node in zip(boundaries[:-1], boundaries[1:], crossed):
            nsub = max(1, math.ceil((t1 - t0) / dt - 1e-12))
            h = (t1 - t0) / nsub
            rhs = _stage_rhs(problem, D, t0, t1 - t0)
            t_ends = t0 + np.arange(1, nsub + 1) * h
            t_ends[-1] = t1
            inflow_values = exact(grid.nodes[inflow], t_ends) if problem.speed != 0.0 else None
            for k, t_new in enumerate(t_ends.tolist()):
                state = rk4_step(state, t0 + k * h, h, problem, D, rhs)
                if k == nsub - 1 and node is not None:
                    state[node] -= np.sign(problem.speed) * problem.jump0.jumps[0]
                if inflow_values is not None:
                    state[inflow] = inflow_values[k]
                if not np.isfinite(state).all():
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
    err = np.array(
        [np.max(np.abs(s - np.asarray(exact(grid.nodes, t), dtype=float)))
         for t, s in zip(times_arr, states_arr)]
    )
    return EvolutionResult(times_arr, states_arr, xi_path, err)
