"""Special functions, small dense least squares and a 1-D minimizer.

The rest of the package needs four numerical primitives: the chi-square
survival function (for heterogeneity p-values), the normal survival
function (for two-sided z-tests), the inverse of a p x p cross-product
matrix X'WX with a rank test (``gram_inverse``: one Cholesky
factorization, never one of the n x p design) and a safeguarded Newton
search inside a bracket (the one 1-D minimizer, shared by the modified Q
and the REML trend test). ``gram_inverse`` is the backbone of both
regression fits: ``wls_solve``, the least-squares solve of the linear
fit, is the Gram product plus ``gram_inverse``, and each Newton step of
the logistic fit factors its own X'WX with it.

``newton_in_bracket`` is vectorized over lanes: it minimizes C functions
at once, one per lane, with one derivatives call per step for all of
them, each lane taking exactly the steps a scalar loop would take and
freezing once it stops. A single test is the one-lane call; the
simulation engine runs one lane per cell of a replication.
``lane_groups`` stacks the lanes of equal length into (C, K) arrays for
it. All functions here are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RankDeficiencyError

# Iteration cap for the incomplete-gamma series and continued fraction.
# Both converge in a few dozen terms for the (q, df) ranges seen here.
_MAX_TERMS = 500

# A pivot of the unit-diagonal Cholesky factor of X'WX at or below this
# marks its column as a linear combination of the columns before it
# (weighted 1 - R^2 <= 1e-10): deterministic, documented failure instead
# of silent garbage. Rounding in the cross-products leaves an exactly
# dependent column with a pivot of up to about 7e-7 (seen at n = 1k to
# 2M), so the floor sits well above that noise; a covariate correlated
# 0.999999 with another column has a pivot of 1.4e-3.
_PIVOT_FLOOR = 1e-5

#: Cap on the Newton/bisection steps of ``newton_in_bracket``; bisection
#: alone reaches a few ulp of x from a scan bracket in well under this many.
_NEWTON_MAX_ITER = 100


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series.

    P(a, x) = x^a e^{-x} / Gamma(a) * sum_{n>=0} x^n / (a (a+1) ... (a+n)),
    which converges fast for x < a + 1.
    """
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_TERMS):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction.

    Modified Lentz evaluation of the classical continued fraction
    Q(a, x) = x^a e^{-x} / Gamma(a) * 1 / (x + 1 - a - 1(1-a)/(x + 3 - a - ...)),
    stable for x >= a + 1.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_sf(q: float, df: int) -> float:
    """Upper-tail probability P(X > q) for X ~ chi-square with ``df`` df.

    Equals the regularized upper incomplete gamma function Q(df/2, q/2).
    The computation splits at x = a + 1 between the series and the
    continued fraction, the standard stable arrangement; absolute error
    is well below 1e-12 in the ranges exercised by the test suite.
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError(f"chi-square statistic must be finite and >= 0, got {q}")
    if int(df) != df or df < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df}")
    a = df / 2.0
    x = q / 2.0
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        p = 1.0 - _lower_gamma_series(a, x)
    else:
        p = _upper_gamma_cf(a, x)
    # Roundoff can push the complement a few ulp outside [0, 1].
    return min(max(p, 0.0), 1.0)


def normal_sf(z: float) -> float:
    """Upper-tail probability P(Z > z) for a standard normal Z.

    Computed as erfc(z / sqrt(2)) / 2, accurate to a few ulp, and
    satisfying normal_sf(z) + normal_sf(-z) = 1.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gram_inverse(gram: np.ndarray) -> np.ndarray:
    """The inverse of a p x p cross-product matrix X'WX, with a rank test.

    X'WX is scaled to a unit diagonal and factored by Cholesky; this is
    the one factorization behind every fit of the package. A column whose
    Cholesky pivot is at most ``_PIVOT_FLOOR`` is a linear combination of
    the columns before it, and the first such column is reported in
    ``RankDeficiencyError``. A non-finite entry (from a non-finite design,
    or a product that overflowed) raises ``DomainError``.
    """
    if not np.isfinite(gram).all():
        raise DomainError("design matrix contains non-finite entries, or X'WX overflows")
    p = gram.shape[0]
    scale = np.sqrt(np.diag(gram))
    scale[scale == 0.0] = 1.0  # a zero column keeps a zero pivot below
    unit = gram / np.outer(scale, scale)
    chol = np.zeros((p, p))
    for j in range(p):
        pivot2 = unit[j, j] - chol[j, :j] @ chol[j, :j]
        if not pivot2 > _PIVOT_FLOOR**2:
            raise RankDeficiencyError(column=j)
        chol[j, j] = math.sqrt(pivot2)
        chol[j + 1:, j] = (unit[j + 1:, j] - chol[j + 1:, :j] @ chol[j, :j]) / chol[j, j]
    chol_inv = np.linalg.inv(chol)
    return (chol_inv.T @ chol_inv) / np.outer(scale, scale)


def wls_solve(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares through the normal equations X'X coef = X'y.

    Minimizes sum_i (y_i - X_i . coef)^2 and returns ``(coef, cov)``
    where ``cov = (X'X)^{-1}``. Callers rescale ``cov`` according to
    their own error model (e.g. by the residual variance for ordinary
    regression).

    One pass over the rows forms the p x p matrix X'X and the vector
    X'y, and ``gram_inverse`` inverts X'X (raising
    ``RankDeficiencyError`` for a dependent column). The normal equations
    square the condition number of the design, so callers should centre
    their non-intercept columns (``regress`` does). X and y are not
    scanned for non-finite entries: those show up as non-finite
    cross-products, which raise ``DomainError``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"design must be 2-dimensional, got shape {X.shape}")
    n, p = X.shape
    if y.shape != (n,):
        raise DomainError(f"response has shape {y.shape}, expected ({n},)")
    if n < p:
        raise DomainError(f"need at least as many rows as columns, got {n} < {p}")
    # Unit weights go through the same product: numpy computes X'X itself
    # with a symmetric rank-k update, several times slower than X'WX here.
    w = np.ones(n)
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        Xw = X * w[:, None]
        gram = Xw.T @ X
        rhs = Xw.T @ y
    cov = gram_inverse(gram)
    if not np.isfinite(rhs).all():
        raise DomainError("response contains non-finite entries, or X'y overflows")
    return cov @ rhs, cov


def newton_in_bracket(derivatives, lo, hi, x) -> tuple[np.ndarray, np.ndarray]:
    """Minimize C smooth 1-D functions, lane by lane, each inside its bracket [lo, hi].

    ``lo``, ``hi`` and the start ``x`` have shape (C,); ``derivatives(x)``
    returns the first and second derivatives of every lane at x, as two
    arrays of shape (C,), so that one call evaluates them all. Each lane
    follows the same rule on its own: each step first shrinks the bracket
    to the side the slope points down to, then takes the Newton step. A
    step taken where the curvature is not positive, or one that lands
    outside the bracket or on its far end, becomes a bisection step:
    landing on the far end happens when rounding noise in the slope
    exceeds the stopping tolerance, and would otherwise cycle between the
    two ends. A zero step is kept. A lane stops at a zero slope or a step
    of at most four ulp of x, and after at most ``_NEWTON_MAX_ITER`` steps;
    from then on it is frozen, and its derivatives, though still evaluated
    with the others, are ignored. Returns (x, steps taken), both of shape
    (C,). A lane's steps and result do not depend on the other lanes.

    When x is an end of the bracket and the slope there points out of it,
    the bracket collapses onto x and x is returned after one step.

    The rule runs on each lane's Python floats: for the few lanes of a
    call (one per test, or per cell of a replication) that is cheaper than
    a dozen array operations per step, and it is exactly the scalar rule.
    """
    lo, hi, x = (np.array(a, dtype=float).tolist() for a in (lo, hi, x))
    steps = [0] * len(x)
    active = range(len(x))
    for step in range(1, _NEWTON_MAX_ITER + 1):
        d1, d2 = (np.asarray(d).tolist() for d in derivatives(np.array(x)))
        moving = []
        for j in active:
            steps[j] = step
            if d1[j] == 0.0:
                continue
            if d1[j] > 0.0:
                hi[j] = x[j]
            else:
                lo[j] = x[j]
            new = x[j] - d1[j] / d2[j] if d2[j] > 0.0 else math.nan
            if not (lo[j] < new < hi[j] or new == x[j]):
                new = 0.5 * (lo[j] + hi[j])
            moved, x[j] = abs(new - x[j]), new
            if not moved <= 4.0 * np.spacing(abs(new)):
                moving.append(j)
        active = moving
        if not active:
            break
    return np.array(x), np.array(steps)


def lane_groups(lanes: dict) -> list[tuple[list, list[np.ndarray]]]:
    """The lanes of equal length, stacked.

    ``lanes`` maps a lane index to a tuple of 1-D columns of one length.
    Returns, per distinct length in first-seen order, the lane indices and
    one C-contiguous (C, length) array per column, row j holding lane j.
    """
    by_length: dict[int, list] = {}
    for lane, columns in lanes.items():
        by_length.setdefault(columns[0].size, []).append(lane)
    return [(ids, [np.array(column) for column in zip(*(lanes[i] for i in ids))])
            for ids in by_length.values()]
