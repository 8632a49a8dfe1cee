"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: the
chi-square tail comes from adaptive quadrature of the density, the normal
tail from a power series for erf, the modified-weights heterogeneity
statistic from a brute-force grid minimization, and the logistic maximum
likelihood from plain Newton-Raphson solved by ``np.linalg.solve``. The
scalar safeguarded Newton search is the reference that the package's
lane-vectorized ``numerics.newton_in_bracket`` must match step for step.
"""

from __future__ import annotations

import math

import numpy as np


def _adaptive_simpson(f, a, b, tol, depth=60):
    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(fa, flm, fm, a, m)
        right = simpson(fm, frm, fb, m, b)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), tol, depth)


def chi_square_sf_quadrature(q: float, df: int, tol: float = 1e-12) -> float:
    """P(X > q) for X ~ chi-square(df), by integrating the density.

    For df = 1 the density is singular at zero, so the integral is taken
    in the substituted variable t = s^2, which turns it into a smooth
    half-normal integrand.
    """
    if q == 0.0:
        return 1.0
    a = df / 2.0
    if df == 1:
        c = 2.0 / math.sqrt(2.0 * math.pi)
        cdf = _adaptive_simpson(lambda s: c * math.exp(-0.5 * s * s), 0.0, math.sqrt(q), tol)
    else:
        lognorm = a * math.log(2.0) + math.lgamma(a)

        def density(t):
            if t <= 0.0:
                return 0.0
            return math.exp((a - 1.0) * math.log(t) - 0.5 * t - lognorm)

        cdf = _adaptive_simpson(density, 0.0, q, tol)
    return min(max(1.0 - cdf, 0.0), 1.0)


def _erf_series(x: float) -> float:
    # Alternating Maclaurin series; plenty accurate for |x| <= 4.
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18 * max(abs(total), 1e-300) and n < 300:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def normal_sf_series(z: float) -> float:
    """P(Z > z) from the erf Maclaurin series (|z| up to ~5)."""
    return 0.5 * (1.0 - _erf_series(z / math.sqrt(2.0)))


def modified_q_grid_min(bx, bx_se, by, by_se, lo, hi, steps=400_001):
    """Brute-force minimum over beta of the modified-weights Q function.

    Q(beta) = sum_k (by_k - beta bx_k)^2 / (by_se_k^2 + beta^2 bx_se_k^2),
    scanned on a uniform grid over [lo, hi].
    """
    bx = np.asarray(bx, dtype=float)
    bx_se = np.asarray(bx_se, dtype=float)
    by = np.asarray(by, dtype=float)
    by_se = np.asarray(by_se, dtype=float)
    grid = np.linspace(lo, hi, steps)
    resid = by[None, :] - grid[:, None] * bx[None, :]
    var = by_se[None, :] ** 2 + grid[:, None] ** 2 * bx_se[None, :] ** 2
    qvals = (resid**2 / var).sum(axis=1)
    i = int(np.argmin(qvals))
    return float(grid[i]), float(qvals[i])


def newton_in_bracket_scalar(derivatives, lo, hi, x):
    """One lane of ``numerics.newton_in_bracket``, written as a plain loop on floats.

    ``derivatives(x)`` returns (d1, d2) at the float x. Returns (x, steps).
    """
    for steps in range(1, 101):
        d1, d2 = derivatives(x)
        if d1 == 0.0:
            break
        lo, hi = (lo, x) if d1 > 0.0 else (x, hi)
        new = x - d1 / d2 if d2 > 0.0 else math.nan
        if not (lo < new < hi or new == x):
            new = 0.5 * (lo + hi)
        step, x = abs(new - x), new
        if step <= 4.0 * np.spacing(abs(x)):
            break
    return x, steps


def _design(means):
    """The design [1, x - mean(x)] of the mean-exposure meta-regression.

    Centring leaves det(X' W X), the residuals and the slope unchanged (it
    is a change of basis with determinant 1), but keeps det(X' W X) from
    cancelling when the means span a range small against their level:
    uncentred, means spanning 0.05 near 9.3 leave the log-likelihood with
    rounding noise of order 1e-11, enough to move its grid maximum.
    """
    x = np.asarray(means, dtype=float)
    return np.column_stack([np.ones_like(x), x - x.mean()])


def reml_loglik(tau2, estimates, variances, means):
    """Restricted log-likelihood of the mean-exposure meta-regression.

    Up to an additive constant:
    -0.5 [ sum log(v_k + tau2) + log det(X' W X) + sum w_k r_k^2 ].
    X is ``_design(means)``.
    """
    y = np.asarray(estimates, dtype=float)
    v = np.asarray(variances, dtype=float)
    X = _design(means)
    w = 1.0 / (v + tau2)
    xtwx = X.T @ (X * w[:, None])
    coef = np.linalg.solve(xtwx, X.T @ (w * y))
    r = y - X @ coef
    return -0.5 * (
        np.log(v + tau2).sum() + math.log(np.linalg.det(xtwx)) + float(w @ r**2)
    )


def reml_loglik_grid(grid, estimates, variances, means):
    """``reml_loglik`` at every tau2 of ``grid``, as one broadcast over the grid.

    The (2, 2) matrices X' W X of all grid points are stacked, and solved
    and factored in one batched call each. Every product keeps the shape
    it has in ``reml_loglik``, so the two agree to the last bit.
    """
    y = np.asarray(estimates, dtype=float)
    v = np.asarray(variances, dtype=float)
    X = _design(means)
    shifted = v + np.asarray(grid, dtype=float)[:, None]
    w = 1.0 / shifted
    xtwx = X.T @ (X * w[:, :, None])
    coef = np.linalg.solve(xtwx, X.T @ (w * y)[:, :, None])
    r = y - (X @ coef)[:, :, 0]
    return -0.5 * (np.log(shifted).sum(axis=1) + np.log(np.linalg.det(xtwx))
                   + (w[:, None, :] @ (r**2)[:, :, None])[:, 0, 0])


def reml_profile_grid(estimates, variances, means, hi, step=1e-4):
    """Grid search of the restricted likelihood over tau2 in [0, hi].

    Returns (tau2_hat, slope_at_tau2_hat). The coarse scan uses the
    requested resolution and is then refined twice around the maximum,
    still by pure grid evaluation; each scan is one ``reml_loglik_grid``
    call.
    """
    y = np.asarray(estimates, dtype=float)
    v = np.asarray(variances, dtype=float)
    x = np.asarray(means, dtype=float)

    def scan(lo_, hi_, n_):
        grid = np.linspace(lo_, hi_, n_)
        return grid, int(np.argmax(reml_loglik_grid(grid, y, v, x)))

    n = max(int(round(hi / step)) + 1, 11)
    grid, i = scan(0.0, hi, n)
    width = grid[1] - grid[0]
    for _ in range(2):
        lo_ = max(0.0, grid[i] - width)
        hi_ = grid[i] + width
        grid, i = scan(lo_, hi_, 2001)
        width = grid[1] - grid[0]
    tau2 = float(grid[i])

    X = _design(x)
    w = 1.0 / (v + tau2)
    xtwx = X.T @ (X * w[:, None])
    coef = np.linalg.solve(xtwx, X.T @ (w * y))
    return tau2, float(coef[1])


def logistic_mle_newton(X, y, tol=1e-12, max_iter=100):
    """Logistic maximum likelihood by plain Newton-Raphson; returns (coef, cov).

    ``X`` is the raw design, its first column the intercept. The other
    columns are standardized (mean 0, sd 1) so that the Hessian stays well
    conditioned when a column sits far from zero; the standardization is a
    change of basis, and coef and cov = (X'WX)^{-1} are mapped back to the
    raw columns. Starts from all-zero coefficients, takes full Newton steps
    solved with ``np.linalg.solve`` (no step halving, no rank test), and
    stops once every entry of the score X'(y - p), per observation, is
    below ``tol``; cov is then taken at that final iterate.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    loc = np.concatenate([[0.0], X[:, 1:].mean(axis=0)])
    sd = np.concatenate([[1.0], X[:, 1:].std(axis=0)])
    Z = (X - loc) / sd
    coef = np.zeros(p)
    for _ in range(max_iter):
        prob = 1.0 / (1.0 + np.exp(-(Z @ coef)))
        score = Z.T @ (y - prob)
        hessian = Z.T @ (Z * (prob * (1.0 - prob))[:, None])
        if np.abs(score).max() / n < tol:
            break
        coef = coef + np.linalg.solve(hessian, score)
    else:
        raise RuntimeError(f"Newton-Raphson did not converge in {max_iter} steps")
    # Raw coefficients b satisfy X b = Z c: b = A c with A = diag(1/sd) and
    # the intercept row -loc/sd.
    A = np.diag(1.0 / sd)
    A[0, 1:] = -loc[1:] / sd[1:]
    return A @ coef, A @ np.linalg.inv(hessian) @ A.T


def ks_uniform_pvalue(samples) -> float:
    """Two-sided Kolmogorov-Smirnov p-value against Uniform(0, 1).

    Uses the Stephens small-sample correction of the asymptotic
    Kolmogorov distribution, accurate enough for n >= 50.
    """
    u = np.sort(np.asarray(samples, dtype=float))
    n = u.size
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(max(total, 0.0), 1.0)
