"""Linear advection with a moving known discontinuity, via the method of lines.

Space is discretized with a (possibly jump-corrected) derivative matrix and
time with classical fourth-order Runge-Kutta. The discontinuity travels at
the advection speed with its derivative jumps frozen, so its node-crossing
times are known exactly in advance; the stepper lands on each crossing,
moves the crossed node to the branch of its new side, and restarts just
after it, which keeps the right-hand side smooth in time within every step.

The segment algebra. Between two crossings every node stays on its side
and only xi moves, so the semi-discrete system y' = -c u_x is linear with a
forcing known in advance, and all steps of a segment share one size h:

- Without jumps the system is y' = A y with A = -c D, and the RK4 increment
  of an autonomous linear system is exactly
  E = h A + h^2/2 A^2 + h^3/6 A^3 + h^4/24 A^4. A run builds the powers
  A, ..., A^4 once (_powers), and a segment forms E from them by Horner in
  h, with no matrix product. E's rows sum to zero in exact arithmetic, as
  D's do; one pass subtracts each row's floating-point sum from its
  diagonal entry so they do so to rounding (otherwise the rounding of E
  moves constants a little every step).
- With jumps, no node crosses the discontinuity within the segment
  (_bracket enforces it), so xi moves inside a node-free bracket (lo, hi).
  Taylor-expanding the jump series about the midpoint m gives, with
  e = m - xi and z = -0.0 at every node,

      corrected_derivative(D, y, JumpData(xi, J)) = D y + sum_p e^p / p! R_p,
      R_p = corrected_derivative(D, z, JumpData(m, J[p:])),

  exactly, since the series is a polynomial in xi and every node keeps its
  side; |e| <= (hi - lo) / 2 keeps the sum well conditioned. The forcing
  -c sum_p e^p / p! R_p is linear in the Taylor weights at the three stage
  times, so the RK4 stages of A run on the M + 1 columns -c R_p, placed at
  each stage time in turn, give a map Q from the 3 (M + 1) weights of a
  step to its forcing; with the weights of a block of steps as the rows of
  W, their forcing rows are W Q^T, one product per block. Stage locations
  that land exactly on a bracketing node are nudged one ulp into the open
  interval, which puts every node on a definite side consistently with the
  direction of motion.
- A step is then y + (E y + f), one matrix-vector product and two vector
  additions, or y + E y without jumps; E is built once per segment and the
  forcing rows one block of steps at a time (_segment_steps). rk4_step
  applies E with ndarray.dot, which reaches the same BLAS gemv as E @ y
  with less per-call dispatch, and adds y to E y + f in place: addition
  commutes, so the bits are those of y + (E y + f).
- The state's finiteness is checked once per segment, at its end. A
  non-finite entry other than the inflow node's stays non-finite, since a
  step adds it to its own entry and the crossed-node move adds a finite
  J_0, and the inflow values are checked one block of steps at a time,
  before the block is stepped: a non-finite one is an exact solution past
  the float range, not an unstable step. So the check misses no failure; a
  failed segment is replayed step by step to name the first failing step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .diffmat import DerivMatrix
from .grid import Grid
from .jumps import JumpData, _require_interior, corrected_derivative
from .lagrange import _finite

__all__ = ["AdvectionProblem", "EvolutionResult", "rk4_step", "evolve"]


@dataclass(frozen=True)
class AdvectionProblem:
    """Setup for u_t + c u_x = 0 on a fixed grid.

    initial samples u(x, 0) (vectorized over x). jump0 describes the initial
    discontinuity; pass None to run the uncorrected smooth pipeline. The
    discontinuity path xi0 + c t must stay strictly inside the interval up
    to t_final and must not start on a node. The solution is
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
        if jd is not None:
            _require_interior(jd, self.grid)
            if not self.grid.a < jd.xi + self.speed * self.t_final < self.grid.b:
                raise ValueError("discontinuity path leaves the open interval before t_final")


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


def _rounding(grid: Grid) -> float:
    """How near a node of grid a discontinuity location counts as on it: a
    few hundred roundings at the grid's scale, since accumulated step times
    reproduce crossing instants only to ulp accuracy. Relative to the scale
    max(|a|, |b|), which bounds the rounding of every node and location, so
    that an interval [-s, s] is judged as its unit-scale twin for any s."""
    return 1e-13 * max(abs(grid.a), abs(grid.b))


def _bracket(problem: AdvectionProblem, t: float, dt: float) -> tuple[float, float]:
    """Node-free open interval containing the discontinuity path over [t, t + dt].

    evolve asks once per crossing-free segment (and for the first one again
    before any step), rk4_step alone once per step.

    The path endpoints may touch the bracketing nodes (that is the crossing
    the stepper lands on), but no node may lie strictly inside the swept
    range. Endpoints within _rounding of a node count as touching it.
    """
    nodes = problem.grid.nodes
    x0 = problem.jump0.xi + problem.speed * t
    x1 = problem.jump0.xi + problem.speed * (t + dt)
    lo_x, hi_x = (x0, x1) if x0 <= x1 else (x1, x0)
    tol = _rounding(problem.grid)
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


def _rk4_increment(A: np.ndarray, h: float, y: np.ndarray, b1, b2, b4) -> np.ndarray:
    """Increment h/6 (k1 + 2 (k2 + k3) + k4) of one classical Runge-Kutta step
    of y' = A y + b(tt), with b = b1, b2, b4 at the stage times t, t + h/2
    and t + h. y and the b may be blocks of columns, stepped column by column."""
    k1 = A @ y + b1
    k2 = A @ (y + 0.5 * h * k1) + b2
    k3 = A @ (y + 0.5 * h * k2) + b2
    k4 = A @ (y + h * k3) + b4
    return (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


_FORCING_BLOCK = 1024  # steps per block of forcing rows, end times and inflow values


def _powers(problem: AdvectionProblem, D: DerivMatrix) -> np.ndarray:
    """A, A^2, A^3, A^4 with A = -c D, stacked: every step matrix of a run
    is a polynomial in them (module docstring). A ValueError, before any
    step, if one leaves the float range: the step matrices would too."""
    def compute():
        P = [-problem.speed * D.entries]
        for _ in range(3):
            P.append(P[-1] @ P[0])
        return np.array(P)

    return _finite(compute, lambda i: ValueError(f"speed {problem.speed} is too large for the grid of N = "
                                                 f"{D.grid.N}: the powers of -speed * D leave the float range"))


def _segment_steps(problem: AdvectionProblem, D: DerivMatrix, t: float, dt: float,
                   nsub: int, powers: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Step matrix E of nsub RK4 steps of size h = dt / nsub from t, and
    forcing(k0, k1), the forcing rows f_k of steps k0 <= k < k1 as one
    array, or a None per step without jumps: step k maps y to y + (E y + f_k),
    or to y + E y where f_k is None. powers holds A, ..., A^4 (_powers).
    The algebra is in the module docstring.
    """
    c, jd = problem.speed, problem.jump0
    n, h = D.grid.N + 1, dt / nsub
    E = powers[3] * (h / 4.0)
    for k in (2, 1, 0):
        E += powers[k]
        E *= h / (k + 1)
    diagonal = E.reshape(-1)[:: n + 1]  # a view: E is contiguous
    diagonal -= E.sum(axis=1)
    if jd is None:
        return E, lambda k0, k1: [None] * (k1 - k0)
    lo, hi = _bracket(problem, t, dt)
    mid = 0.5 * (lo + hi)
    M = jd.order
    zero = np.full(n, -0.0)
    B = -c * np.column_stack(
        [corrected_derivative(D, zero, JumpData(mid, jd.jumps[p:])) for p in range(M + 1)]
    )
    # column block s of Q takes the forcing at stage time s: t, t + h/2, t + h
    b = np.zeros((3, n, 3, M + 1))
    for s in range(3):
        b[s, :, s] = B
    Q = _rk4_increment(powers[0], h, np.zeros((n, 3 * (M + 1))), *b.reshape(3, n, -1))
    lo_in, hi_in = float(np.nextafter(lo, hi)), float(np.nextafter(hi, lo))

    def forcing(k0: int, k1: int) -> np.ndarray:
        tt = (t + np.arange(k0, k1) * h)[:, None] + np.array([0.0, 0.5 * h, h])
        e = mid - np.clip(jd.xi + c * tt, lo_in, hi_in)
        W = np.empty((*e.shape, M + 1))
        W[..., 0] = 1.0
        for p in range(1, M + 1):
            W[..., p] = W[..., p - 1] * (e / p)
        return W.reshape(len(e), -1) @ Q.T

    return E, forcing


def rk4_step(state, t: float, dt: float, problem: AdvectionProblem, D: DerivMatrix,
             step: tuple[np.ndarray, np.ndarray | None] | None = None) -> np.ndarray:
    """One classical Runge-Kutta step from t to t + dt.

    step is the (E, f) pair of the step: y maps to y + (E y + f), or to
    y + E y when f is None. By default it is built for this one step by
    _segment_steps, powers of -c D included; evolve passes each step its
    segment's pair (module docstring). The discontinuity may touch a node
    only at the step endpoints.
    """
    state = np.asarray(state, dtype=float)
    if step is None:
        _require_operator(problem, D)
        E, forcing = _segment_steps(problem, D, t, dt, 1, _powers(problem, D))
        step = E, forcing(0, 1)[0]
    E, f = step
    du = E.dot(state)
    if f is not None:
        du += f
    du += state
    return du


def _require_operator(problem: AdvectionProblem, D: DerivMatrix) -> None:
    """A ValueError unless D is a first-derivative matrix on the problem's
    grid: the same interval and bit for bit the same nodes."""
    g, h = problem.grid, D.grid
    if D.n != 1 or (h.a, h.b) != (g.a, g.b) or h.nodes.tobytes() != g.nodes.tobytes():
        raise ValueError("D must be a first-derivative matrix on the problem's grid; got order "
                         f"{D.n} on {h.N + 1} nodes in [{h.a}, {h.b}]")


def _segments(problem: AdvectionProblem) -> list[tuple[float, float, int | None]]:
    """(start, end, crossed node or None) of every time segment, in time
    order: each but the last ends when the discontinuity crosses a node,
    the last at t_final.

    The crossed nodes are those strictly between the path's start and end;
    only their times divide by the speed, so each is finite however small
    the speed is.
    """
    jd, crossings = problem.jump0, []
    if jd is not None:
        nodes = problem.grid.nodes
        ends = sorted((jd.xi, jd.xi + problem.speed * problem.t_final))
        inside = np.flatnonzero((nodes > ends[0]) & (nodes < ends[1]))
        times = (nodes[inside] - jd.xi) / problem.speed
        crossings = sorted(zip(times.tolist(), inside.tolist()))
    starts = [0.0, *(t for t, _ in crossings)]
    return [(t0, t1, node) for t0, (t1, node) in zip(starts, [*crossings, (problem.t_final, None)])]


def _segment_states(problem: AdvectionProblem, D: DerivMatrix, powers: np.ndarray,
                    state: np.ndarray, t0: float, t1: float, nsub: int,
                    node: int | None) -> Iterator[tuple[float, np.ndarray]]:
    """(end time, state) after each of nsub uniform steps from t0 to t1,
    starting from state: one rk4_step with the segment's step matrix and
    forcing row (_segment_steps), then, on the last step, the move of the
    crossed node, if any, and after every step the inflow overwrite. The
    forcing rows, end times and inflow values are built one block of steps
    at a time, so memory stays O(block) however small the steps are; a
    block with an inflow value that is not finite is a RuntimeError before
    its first step. Each yielded state is a new array that nothing writes
    to afterwards."""
    c, h = problem.speed, (t1 - t0) / nsub
    inflow = 0 if c > 0 else problem.grid.N
    x_in = problem.grid.nodes[inflow]
    E, forcing = _segment_steps(problem, D, t0, t1 - t0, nsub, powers)
    moved = -1 if node is None else nsub - 1  # the step after which the crossed node moves
    for k0 in range(0, nsub, _FORCING_BLOCK):
        k1 = min(k0 + _FORCING_BLOCK, nsub)
        t_ends = t0 + np.arange(k0 + 1, k1 + 1) * h
        if k1 == nsub:
            t_ends[-1] = t1
        values = _finite(lambda: np.asarray(problem.initial(x_in - c * t_ends), dtype=float),
                         lambda i: RuntimeError(f"the exact inflow value initial(x - c t) at node {inflow} "
                                                f"(x = {x_in}) is not finite at t = {t_ends[i]}"))
        for k, t_new, value, f in zip(range(k0, k1), t_ends.tolist(), values.tolist(), forcing(k0, k1)):
            state = rk4_step(state, t0 + k * h, h, problem, D, (E, f))
            if k == moved:
                state[node] -= np.sign(c) * problem.jump0.jumps[0]
            state[inflow] = value
            yield t_new, state


def evolve(problem: AdvectionProblem, D: DerivMatrix, dt: float, output_every: int = 1) -> EvolutionResult:
    """Integrate the problem from t = 0 to t_final.

    D must be a first-derivative matrix built on the problem's grid.
    Time is partitioned at the exact node-crossing times of the
    discontinuity; each segment is covered with uniform Runge-Kutta steps of
    size at most dt, landing exactly on the crossing before restarting on
    the far side. The crossed node's value then moves to the branch of its
    new side, by exactly J_0, which leaves kinks untouched. After every
    step the inflow node is overwritten with the exact solution
    initial(x - c t).
    Steps, their per-segment build and the per-segment finiteness check
    follow the module docstring. States are recorded at t = 0, every
    output_every-th step, and t_final.

    Stability is the caller's business: the step matrix I + E, without the
    inflow node's row and column, must keep its spectral radius within 1.
    The inflow node is reset after each step, not within its stages, so on
    Chebyshev grids this caps dt several times below the RK4 region's
    2.8 / (|c| * max |eigenvalue|) of the inflow-reduced D.

    Raises TypeError before any step if output_every is not an integer
    (operator.index). Raises ValueError before any step if dt is not
    positive (NaN included) or leaves t_final / dt not finite, if the
    initial profile is not finite at some node (it names the first),
    if D is of another order or grid, if the discontinuity starts within
    _bracket's rounding of a node and its first segment cannot be
    bracketed, or if its path ends within _rounding of a node and either
    just crossed it, so that its last segment cannot be bracketed, or has a
    value jump J_0: the node's side at t_final, and so the exact value
    there, is then down to rounding. A kink may end on a node. Also raises
    ValueError, naming the speed and N, if a power of -c D that the steps
    are built from leaves the float range.
    Raises RuntimeError with a diagnostic if the state stops being finite;
    it names the failure time and the largest |u| of the state the failing
    step started from. Raises RuntimeError before stepping a block whose
    exact inflow value initial(x - c t) is not finite at some step's end;
    it names the inflow node and the first such time.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(float(problem.t_final) / float(dt)):
        raise ValueError(f"dt {dt!r} is too small: the step count t_final / dt is not finite")
    if operator.index(output_every) < 1:
        raise ValueError("output_every must be at least 1")
    grid = problem.grid

    def sample():
        state = np.asarray(problem.initial(grid.nodes), dtype=float)
        if state.shape != grid.nodes.shape:
            raise ValueError("initial sampler must return one value per node")
        return state

    state = _finite(sample, lambda j: ValueError(f"the initial profile is not finite at node {j} "
                                                 f"(x = {grid.nodes[j]})"))

    _require_operator(problem, D)
    segments = _segments(problem)
    jd = problem.jump0
    if jd is not None:
        end = jd.xi + problem.speed * problem.t_final
        # the first and last segments' brackets fail only on a start, or an
        # end past a node just crossed, within rounding of that node
        for fault, (t0, t1, _) in ((f"discontinuity at {jd.xi} starts", segments[0]),
                                   (f"discontinuity ends at {end},", segments[-1])):
            try:
                _bracket(problem, t0, t1 - t0)
            except RuntimeError:
                raise ValueError(f"{fault} within rounding of a grid node") from None
        # within rounding of a node, the node's side at t_final is down to
        # rounding: a step's exact value there depends on it, a kink's does not
        if jd.jumps[0] != 0.0 and np.abs(grid.nodes - end).min() <= _rounding(grid):
            raise ValueError(f"discontinuity ends at {end}, within rounding of a grid node")
    powers = _powers(problem, D)

    times = [0.0]
    states = [state]
    steps_done, t_final = 0, problem.t_final
    # an unstable dt overflows on the way to the non-finite check below,
    # which reports it; numpy's own overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, node in segments:
            nsub = max(1, math.ceil((t1 - t0) / dt - 1e-12))
            start = state
            steps = lambda: _segment_states(problem, D, powers, start, t0, t1, nsub, node)
            # a segment's last step ends exactly on t1, so t_final is always recorded
            for t_new, state in steps():
                steps_done += 1
                if steps_done % output_every == 0 or t_new == t_final:
                    times.append(t_new)
                    states.append(state)
            if not np.isfinite(state).all():
                before = start
                for t_new, state in steps():
                    if not np.isfinite(state).all():
                        break
                    before = state
                raise RuntimeError(
                    f"state became non-finite at t = {t_new} (max |u| before failure "
                    f"{np.max(np.abs(before)):.3e}); likely an unstable dt"
                )

    times_arr = np.asarray(times)
    states_arr = np.asarray(states)
    xi_path = np.full_like(times_arr, np.nan) if jd is None else jd.xi + problem.speed * times_arr
    # every recorded state's exact values from one sampler call
    shifted = grid.nodes - problem.speed * times_arr[:, None]
    exact = np.asarray(problem.initial(shifted.ravel()), dtype=float).reshape(states_arr.shape)
    err = np.abs(states_arr - exact).max(axis=1)
    return EvolutionResult(times_arr, states_arr, xi_path, err)
