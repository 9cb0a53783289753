"""Shared nonlinear least-squares machinery.

All fitters in the package go through :func:`levenberg_marquardt`, which
minimizes the sum of squared weighted residuals with multiplicative damping.
Accepted steps never increase the residual norm; the damping factor grows
until a downhill step is found or the step collapses.

Convergence is declared when the relative change of the squared residual
norm between accepted steps drops below ``rtol`` (default 1e-10) or the
infinity norm of the gradient J^T r drops below ``gtol`` (default 1e-8).

``odmr.fit_spectrum`` and ``photon_stats.fit_g2`` pass closed-form
Jacobians. ``dynamics.fit_decay_envelope``, ``dynamics.extract_frequencies``,
``photon_stats.fit_saturation`` and ``confocal.fit_gaussian_slice`` use
:func:`numeric_jacobian`, which costs two residual calls per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FitError(ValueError):
    """Raised for structurally unusable fit input (e.g. constant data)."""


@dataclass
class FitResult:
    """Outcome of a least-squares minimization.

    params and stderr are aligned; stderr comes from the diagonal of
    (J^T J)^-1 scaled by the reduced chi-square at the solution.
    cost_history holds the squared residual norm after every accepted step.
    """

    params: np.ndarray
    stderr: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    cost_history: list = field(default_factory=list)

    @property
    def cost(self) -> float:
        return self.residual_norm ** 2


def numeric_jacobian(residuals, x, bounds=None, rel_step=1e-6):
    """Central-difference Jacobian of a residual vector function.

    Steps are switched to one-sided where a bound would be crossed.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    r0 = np.asarray(residuals(x), dtype=float)
    jac = np.empty((r0.size, n))
    for i in range(n):
        h = rel_step * max(abs(x[i]), 1e-8)
        lo, hi = (-np.inf, np.inf) if bounds is None else bounds[i]
        xp, xm = x.copy(), x.copy()
        if x[i] + h > hi:
            xm[i] = x[i] - h
            jac[:, i] = (r0 - residuals(xm)) / h
        elif x[i] - h < lo:
            xp[i] = x[i] + h
            jac[:, i] = (residuals(xp) - r0) / h
        else:
            xp[i] = x[i] + h
            xm[i] = x[i] - h
            jac[:, i] = (residuals(xp) - residuals(xm)) / (2.0 * h)
    return jac


def _clip_to_bounds(x, bounds):
    if bounds is None:
        return x
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.clip(x, lo, hi)


def levenberg_marquardt(
    residuals,
    x0,
    bounds=None,
    jac=None,
    max_iter=200,
    rtol=1e-10,
    gtol=1e-8,
    lam0=1e-3,
) -> FitResult:
    """Minimize ``sum(residuals(x)**2)`` starting from ``x0``.

    residuals: callable returning the weighted residual vector.
    bounds: optional sequence of (lo, hi) per parameter; trial points are
        projected into the box.
    jac: optional callable returning the residual Jacobian; central
        differences are used when absent.
    """
    x = _clip_to_bounds(np.asarray(x0, dtype=float).copy(), bounds)
    r = np.asarray(residuals(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FitError("residuals are not finite at the starting point")
    cost = float(r @ r)
    lam = lam0
    history = [cost]
    converged = False
    iterations = 0

    def jacobian_at(xv):
        if jac is not None:
            return np.asarray(jac(xv), dtype=float)
        return numeric_jacobian(residuals, xv, bounds)

    for iterations in range(1, max_iter + 1):
        jac_mat = jacobian_at(x)
        grad = jac_mat.T @ r
        if np.max(np.abs(grad)) < gtol:
            converged = True
            break
        jtj = jac_mat.T @ jac_mat
        diag = np.maximum(np.diag(jtj), 1e-12)

        accepted = False
        while lam < 1e14:
            a = jtj + lam * np.diag(diag)
            try:
                step = np.linalg.solve(a, -grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(a, -grad, rcond=None)
            x_try = _clip_to_bounds(x + step, bounds)
            r_try = np.asarray(residuals(x_try), dtype=float)
            if not np.all(np.isfinite(r_try)):
                lam *= 10.0
                continue
            cost_try = float(r_try @ r_try)
            if cost_try <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break

        rel_change = (cost - cost_try) / max(cost, 1e-300)
        x, r, cost = x_try, r_try, cost_try
        history.append(cost)
        lam = max(lam * 0.3, 1e-12)
        if rel_change < rtol:
            converged = True
            break

    stderr = _standard_errors(jacobian_at(x), r)
    return FitResult(
        params=x,
        stderr=stderr,
        residual_norm=float(np.sqrt(cost)),
        converged=converged,
        iterations=iterations,
        cost_history=history,
    )


def _standard_errors(jac, r):
    """Per-parameter standard errors from the local curvature.

    The covariance is (J^T J)^-1 times the reduced chi-square, i.e. the
    noise scale is estimated from the residuals themselves.
    """
    m, n = jac.shape
    dof = max(m - n, 1)
    try:
        cov = np.linalg.pinv(jac.T @ jac) * (float(r @ r) / dof)
    except np.linalg.LinAlgError:
        return np.full(n, np.inf)
    var = np.diag(cov).copy()
    var[var < 0.0] = 0.0
    return np.sqrt(var)
