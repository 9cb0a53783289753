"""Shared nonlinear least-squares machinery and the one fit report.

All fitters in the package go through :func:`levenberg_marquardt`, which
minimizes the sum of squared weighted residuals with multiplicative damping.
Accepted steps never increase the residual norm; the damping factor grows
until a downhill step is found or the step collapses.

Convergence is declared when the relative change of the squared residual
norm between accepted steps drops below ``RTOL`` or the infinity norm of the
gradient J^T r drops below ``GTOL``. A relative-change stop on a step that
the bounds clipped is reported as not converged: the box, not a minimum,
ended that step.

Every fitter's result (``OdmrFitResult``, ``EnvelopeFit``, ``G2FitResult``,
``SaturationFit``, ``GaussianSliceFit``) carries the solver's
:class:`FitResult` as its ``report``, with ``report.params`` in the order
that result type documents and ``report.stderr`` aligned with it. Residuals
are weighted by :func:`sigma_weights`.

``odmr.fit_spectrum`` and ``photon_stats.fit_g2`` pass closed-form Jacobians.
``dynamics.fit_decay_envelope`` (whose beat fit ``extract_frequencies`` reads),
``photon_stats.fit_saturation`` and ``confocal.fit_gaussian_slice`` use
:func:`numeric_jacobian`, which costs two residual calls per parameter.

:func:`median` returns ``np.median``'s value without importing
``numpy.ma``, which ``np.median`` loads on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tables import frozen, numbers, require

MAX_ITER = 200   # iterations before the solver gives up
RTOL = 1e-10     # relative change of the squared residual norm
GTOL = 1e-8      # infinity norm of the gradient J^T r
LAM0 = 1e-3      # initial damping factor


class FitError(ValueError):
    """Raised for structurally unusable fit input (e.g. constant data)."""


@dataclass
class FitResult:
    """Outcome of a least-squares minimization, and the report of every fitter.

    params and stderr are aligned: ``stderr[k]`` is the error of ``params[k]``,
    also after a fitter reorders them. stderr comes from the diagonal of
    (J^T J)^-1 scaled by the reduced chi-square at the solution. converged
    is False when the solver ran out of iterations or damping, or when its
    last step was clipped by the bounds. cost_history holds the squared
    residual norm after every accepted step.
    """

    params: np.ndarray
    stderr: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    cost_history: list = field(default_factory=list)

    def __post_init__(self):
        self.params, self.stderr = frozen(self.params), frozen(self.stderr)


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


def sigma_weights(sigma) -> np.ndarray:
    """Residual weights 1/sigma; a point with sigma = 0 gets weight 1."""
    return 1.0 / np.where(sigma > 0, sigma, 1.0)


def pinned(params, bounds, names) -> str:
    """``name=value`` of each parameter on one of its bounds; ``names`` label the first ones."""
    return ", ".join(f"{name}={x:g}" for name, x, (lo, hi) in zip(names, params, bounds)
                     if x <= lo or x >= hi)


def levenberg_marquardt(residuals, x0, bounds=None, jac=None) -> FitResult:
    """Minimize ``sum(residuals(x)**2)`` starting from the finite 1-D ``x0``.

    residuals: callable returning the weighted residual vector.
    bounds: optional sequence of one (lo, hi) pair per parameter; trial
        points are projected into the box. None means unbounded, (-inf, inf)
        for each.
    jac: optional callable returning the residual Jacobian; central
        differences are used when absent.
    """
    x0 = require(FitError, "x0", x0)
    if np.ndim(x0) != 1 or not len(x0):
        raise FitError(f"x0 must be a 1-D array of at least one value, got shape {np.shape(x0)}")
    if bounds is None:
        bounds = [(-np.inf, np.inf)] * len(x0)
    box = numbers(FitError, "bounds", bounds)
    if box.shape != (len(x0), 2):
        raise FitError(f"bounds must hold one (lo, hi) pair for each of the {len(x0)} "
                       f"parameters, got shape {box.shape}")
    lo, hi = box.T  # clipping to an infinite bound changes nothing
    x = np.clip(x0, lo, hi)
    r = np.asarray(residuals(x), dtype=float)
    if not np.isfinite(r).all():
        raise FitError("residuals are not finite at the starting point")
    cost = float(r @ r)
    lam = LAM0
    history = [cost]
    converged = False
    iterations = 0

    def jacobian_at(xv):
        if jac is not None:
            return np.asarray(jac(xv), dtype=float)
        return numeric_jacobian(residuals, xv, bounds)

    for iterations in range(1, MAX_ITER + 1):
        jac_mat = jacobian_at(x)
        grad = jac_mat.T @ r
        if np.abs(grad).max() < GTOL:
            converged = True
            break
        jtj = jac_mat.T @ jac_mat
        damping = np.diag(np.maximum(jtj.diagonal(), 1e-12))

        accepted = False
        while lam < 1e14:
            a = jtj + lam * damping
            try:
                step = np.linalg.solve(a, -grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(a, -grad, rcond=None)
            x_try = np.clip(x + step, lo, hi)
            r_try = np.asarray(residuals(x_try), dtype=float)
            if not np.isfinite(r_try).all():
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
        x_prev, x, r, cost = x, x_try, r_try, cost_try
        history.append(cost)
        lam = max(lam * 0.3, 1e-12)
        if rel_change < RTOL:
            # a step that the box clipped stopped on a bound, not at a minimum
            converged = np.array_equal(x, x_prev + step)
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


def median(values) -> float:
    """The median of a 1-D array of finite values, equal to ``np.median``'s bit for bit.

    As in ``np.median``, the middle order statistics come from
    ``np.partition`` with its ``kth`` list and are averaged with ``mean``,
    so that the sign of a zero result matches too. ``np.median`` imports
    ``numpy.ma`` on its first call, which adds about 20 ms to each CLI
    process that seeds a g2 fit or extracts frequencies. An empty array
    gives nan, as ``np.median`` does.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return float("nan")
    kth = [(n - 1) // 2] if n % 2 else [n // 2 - 1, n // 2]
    ordered = np.partition(values, kth + [-1])
    return float(ordered[kth[0]:kth[-1] + 1].mean())


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
