"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The kinked Legendre reference uses the interval [-0.9, 0.9] with the
discontinuity at -0.55; second-kind Legendre functions have logarithmic
endpoint singularities, so grids must stay inside the open interval (-1, 1).
"""

import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from jumpspec import (
    JumpData,
    apply,
    barycentric_weights,
    chebyshev_gauss_lobatto,
    corrected_derivative,
    corrected_integrate,
    corrected_interpolate,
    custom,
    derivative_matrix,
    equidistant,
    integrate,
    interpolate,
    jump_weights,
    one_sided_derivatives_at_node,
    quad_weights,
)
from jumpspec.cli import fit_orders, probe_points
from jumpspec.jumps import _pieces
from jumpspec.mol import AdvectionProblem, evolve
from jumpspec.refproblems import LegendreProblem, SyntheticPiecewise

A, B, XI = -0.9, 0.9, -0.55


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_step_exactness():
    # equidistant grids use composite stencils and stay at moderate size:
    # global operators on many equidistant nodes are the classical
    # Runge/Newton-Cotes pathology (weights of order 10^3), whose rounding
    # noise alone exceeds the tolerance for any formulation
    t0 = time.perf_counter()
    worst = 0.0
    for family, N, xi in [
        ("cgl", 3, 0.1),
        ("equidistant", 5, -0.31),
        ("cgl", 8, 0.47),
        ("equidistant", 12, 0.055),
        ("cgl", 33, -0.62),
    ]:
        g = chebyshev_gauss_lobatto(-1, 1, N) if family == "cgl" else equidistant(-1, 1, N)
        assert not np.any(g.nodes == xi)
        w = barycentric_weights(g)
        f = np.heaviside(g.nodes - xi, 0.5)
        jd = JumpData(xi, [1.0])

        pts = np.setdiff1d(np.linspace(-1, 1, 501), [xi])
        vals = corrected_interpolate(w, f, jd, pts)
        worst = max(worst, np.abs(vals - np.heaviside(pts - xi, 0.5)).max())

        D = derivative_matrix(g, 1, N if family == "cgl" else min(N, 6))
        worst = max(worst, np.abs(corrected_derivative(D, f, jd)).max())

        rule = quad_weights(g)
        got = corrected_integrate(rule, f, jd)
        worst = max(worst, abs(got - (1.0 - xi)))
    elapsed = time.perf_counter() - t0
    report(1, "step exactness", worst <= 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_piecewise_polynomial_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240612)
    worst = 0.0
    for trial in range(50):
        N = int(rng.integers(3, 13))
        M = int(rng.integers(0, N + 1))
        if trial % 2:
            g = chebyshev_gauss_lobatto(-1, 1, N)
        else:
            g = equidistant(-1, 1, N)
        left = rng.uniform(-1, 1, N + 1)
        delta = np.zeros(N + 1)
        delta[: M + 1] = rng.uniform(-1, 1, M + 1)
        xi = float(rng.uniform(-0.7, 0.7))
        while np.any(g.nodes == xi):
            xi = float(rng.uniform(-0.7, 0.7))
        prob = SyntheticPiecewise(left, npoly.polyadd(left, delta), xi)
        jd = prob.jump_data(M)
        f = prob.value(g.nodes)
        w = barycentric_weights(g)

        pts = rng.uniform(-1, 1, 200)
        worst = max(worst, np.abs(corrected_interpolate(w, f, jd, pts) - prob.value(pts)).max())
        D = derivative_matrix(g, 1)
        worst = max(worst, np.abs(corrected_derivative(D, f, jd) - prob.derivative(g.nodes, 1)).max())
        rule = quad_weights(g)
        worst = max(worst, abs(corrected_integrate(rule, f, jd) - prob.integral(-1, 1)))
    elapsed = time.perf_counter() - t0
    report(2, "piecewise-polynomial exactness", worst <= 1e-10 and elapsed < 5.0,
           f"max deviation {worst:.2e} over 50 trials, {elapsed:.2f}s")


def test_criterion_3_jump_condition_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for N, M in [(5, 1), (8, 3), (10, 6), (12, 5), (12, 12)]:
        g = chebyshev_gauss_lobatto(-1, 1, N)
        w = barycentric_weights(g)
        f = rng.uniform(-2, 2, N + 1)
        xi = float(rng.uniform(-0.5, 0.5))
        while np.any(g.nodes == xi):
            xi = float(rng.uniform(-0.5, 0.5))
        J = rng.uniform(-3, 3, M + 1)
        jd = JumpData(xi, J)
        minus, plus = _pieces(f, jump_weights(jd, g), jd, g)
        xs = np.linspace(-1, 1, 6 * (N + 1))
        p_plus = np.polynomial.Polynomial.fit(xs, interpolate(w, plus, xs), N)
        p_minus = np.polynomial.Polynomial.fit(xs, interpolate(w, minus, xs), N)
        for m in range(N + 1):
            dp = p_plus.deriv(m)(xi) if m else p_plus(xi)
            dm = p_minus.deriv(m)(xi) if m else p_minus(xi)
            expected = J[m] if m <= M else 0.0
            scale = max(1.0, abs(dp), abs(dm), abs(expected))
            worst = max(worst, abs((dp - dm) - expected) / scale)
    elapsed = time.perf_counter() - t0
    report(3, "jump-condition reproduction", worst <= 1e-9 and elapsed < 5.0,
           f"max relative deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_convergence_orders():
    t0 = time.perf_counter()
    prob = LegendreProblem(2, XI)
    pts = probe_points(A, B, XI, 1000)
    exact = prob.value(pts)
    near = np.abs(pts - XI) <= 0.2
    errs = {}
    for N in range(10, 41):
        g = chebyshev_gauss_lobatto(A, B, N)
        w = barycentric_weights(g)
        f = prob.value(g.nodes)
        for M in (-1, 5, 15):
            if M > N:
                continue
            if M < 0:
                vals = interpolate(w, f, pts)
            else:
                vals = corrected_interpolate(w, f, prob.jump_data(M), pts)
            err = np.abs(vals - exact)
            errs[(N, M)] = (err.max(), err[near].max())

    Ns = list(range(10, 41))
    order5 = fit_orders(Ns, [errs[(N, 5)][0] for N in Ns])["algebraic_order"]
    err15_at_40 = errs[(40, 15)][0]
    # least-squares slope over every N; fit_orders uses only the tail
    order_plain_near = -np.polyfit(np.log(Ns), np.log([errs[(N, -1)][1] for N in Ns]), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = order5 >= 5.0 and err15_at_40 <= 1e-10 and order_plain_near <= 1.0 and elapsed < 30.0
    report(4, "kinked-Legendre convergence", ok,
           f"M=5 order {order5:.2f}, M=15 error at N=40 {err15_at_40:.1e}, "
           f"plain near-discontinuity order {order_plain_near:.2f}, {elapsed:.1f}s")


def test_criterion_5_thirteen_node_comparison():
    t0 = time.perf_counter()
    prob = LegendreProblem(2, XI)
    pts = probe_points(A, B, XI, 1500)
    exact = prob.value(pts)
    errors = {}
    for family, ctor in (("cgl", chebyshev_gauss_lobatto), ("equidistant", equidistant)):
        g = ctor(A, B, 12)
        w = barycentric_weights(g)
        f = prob.value(g.nodes)
        for M in (-1, 6, 12):
            if M < 0:
                vals = interpolate(w, f, pts)
            else:
                vals = corrected_interpolate(w, f, prob.jump_data(M), pts)
            errors[(family, M)] = np.abs(vals - exact).max()
    elapsed = time.perf_counter() - t0
    ok_cgl = 100.0 * errors[("cgl", 6)] <= errors[("cgl", -1)]
    ok_equi = errors[("equidistant", 6)] < errors[("equidistant", 12)]
    report(5, "13-node corrected-vs-plain comparison", ok_cgl and ok_equi and elapsed < 5.0,
           f"cgl plain/corrected ratio {errors[('cgl', -1)] / errors[('cgl', 6)]:.0f}, "
           f"equidistant M6 {errors[('equidistant', 6)]:.2e} vs M12 {errors[('equidistant', 12)]:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_6_smooth_machinery_regression():
    t0 = time.perf_counter()
    ok = True
    details = []

    for family, ctor in (("cgl", chebyshev_gauss_lobatto), ("equidistant", equidistant)):
        N = 16
        g = ctor(-1, 1, N)
        for n, m in ((1, 2), (1, 8), (2, 6), (1, N)):
            D = derivative_matrix(g, n, m)
            worst = 0.0
            for k in range(m + 1):
                c = np.zeros(k + 1)
                c[k] = 1.0
                exact = npoly.polyval(g.nodes, npoly.polyder(c, n))
                err = np.abs(apply(D, g.nodes**k) - exact).max()
                worst = max(worst, err / max(1.0, np.abs(exact).max()))
            ok &= worst <= 1e-9
            resid = np.abs(D.entries @ np.full(N + 1, 4.0)).max()
            ok &= resid <= 1e-13 * np.abs(D.entries).max() * 4.0
        details.append(f"{family} derivative exactness {worst:.1e}")

        rule = quad_weights(g)
        worst_q = 0.0
        for k in range(N + 1):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            worst_q = max(worst_q, abs(integrate(rule, g.nodes**k) - exact) / max(1.0, abs(exact)))
        ok &= worst_q <= 1e-12
        details.append(f"{family} quadrature exactness {worst_q:.1e}")

    simpson = quad_weights(custom(-1, 1, [-1.0, 0.0, 1.0])).weights
    ok &= bool(np.allclose(simpson, [1 / 3, 4 / 3, 1 / 3], rtol=0, atol=1e-14))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(6, "smooth-machinery regression", ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_7_one_sided_derivative_jump_condition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        n_nodes = int(rng.integers(3, 12))
        nodes = np.sort(rng.uniform(-3, 3, n_nodes))
        while np.any(np.diff(nodes) < 1e-3):
            nodes = np.sort(rng.uniform(-3, 3, n_nodes))
        g = custom(nodes[0], nodes[-1], nodes)
        f = rng.uniform(-5, 5, n_nodes)
        J = rng.uniform(-2, 2, 3)
        k = int(rng.integers(1, n_nodes - 1))
        left, right = one_sided_derivatives_at_node(g, f, k, J)
        worst = max(worst, abs((right - left) - J[1]))
    elapsed = time.perf_counter() - t0
    report(7, "one-sided derivative jump condition", worst <= 1e-13 and elapsed < 1.0,
           f"max |(right - left) - J1| = {worst:.2e} over 100 trials, {elapsed:.2f}s")


def test_criterion_8_method_of_lines_advection():
    t0 = time.perf_counter()
    g = chebyshev_gauss_lobatto(-1, 1, 32)
    xi0 = -0.5
    u0 = lambda x: np.abs(np.asarray(x, dtype=float) - xi0)
    D = derivative_matrix(g, 1)

    corrected = AdvectionProblem(g, 1.0, u0, JumpData(xi0, [0.0, 2.0]), 1.0)
    res = evolve(corrected, D, 1e-3, output_every=200)
    err_corr = float(res.error_linf[-1])

    plain = AdvectionProblem(g, 1.0, u0, None, 1.0)
    res_plain = evolve(plain, D, 1e-3, output_every=200)
    err_plain = float(res_plain.error_linf[-1])

    elapsed = time.perf_counter() - t0
    ok = err_corr <= 1e-4 and err_plain >= 100.0 * err_corr and elapsed < 60.0
    report(8, "method-of-lines advection", ok,
           f"corrected final error {err_corr:.2e}, uncorrected {err_plain:.2e} "
           f"({err_plain / err_corr:.1e}x), {elapsed:.1f}s")
