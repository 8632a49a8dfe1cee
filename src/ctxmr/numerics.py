"""Special functions, small dense least squares and a 1-D minimizer.

The rest of the package needs four numerical primitives: the chi-square
survival function (heterogeneity p-values; a finite sum), the normal survival
function (for two-sided z-tests), the inverse of a p x p cross-product
matrix X'WX with a rank test (``gram_inverse``: one LAPACK Cholesky
factorization of the unit-diagonal X'WX, never one of the n x p design;
its pivots give the rank test) and a safeguarded Newton
search inside a bracket (the one 1-D minimizer). The modified Q and the
REML trend test both scan their criterion on a grid and call
``refine_scan``, which brackets the best scan point by its neighbours
and polishes it by that search. ``gram_inverse`` is the backbone of both
regression fits: ``wls_solve``, the least-squares solve of the linear
fit, is the Gram product plus ``gram_inverse``, and each Newton step of
the logistic fit factors its own X'WX with it.

``newton_in_bracket`` is vectorized over lanes: it minimizes C functions
at once, one per lane, with one derivatives call per step for all of
them, each lane taking exactly the steps a scalar loop would take and
freezing once it stops. A single test is the one-lane call; the
simulation engine runs one lane per cell of a replication.
``lane_groups`` stacks the lanes of equal length into (C, K) arrays for
it, and ``row_dot`` is the one dot product over the last axis of such
stacks (and of the simulation engine's per-context rows): one BLAS dot
per row, so that each row equals its 1-D dot product to the last bit.
All functions here are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RankDeficiencyError

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


def chi_square_sf(q: float, df: int) -> float:
    """Upper-tail probability P(X > q) for X ~ chi-square with ``df`` df.

    This is the regularized upper incomplete gamma Q(df/2, x), x = q/2,
    which for an integer df is a finite sum (its Poisson form):

        df = 2m:      sum_{j<m} x^j e^{-x} / j!
        df = 2m + 1:  erfc(sqrt x) + sum_{j<m} x^{j+1/2} e^{-x} / Gamma(j + 3/2)

    Each term, of exponent e, is exp(e ln x - x - lgamma(e + 1)): a
    recurrence from e^{-x} would underflow past x ~ 745 while the sum is
    still O(1) for df/2 >~ x. Nothing cancels, so the relative error is
    that of the exponents: within 6e-14 of mpmath for df <= 60, 6e-12 up
    to df 10^4, where a call costs 1.3 ms (2-9 microseconds at df <= 60).
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError(f"chi-square statistic must be finite and >= 0, got {q}")
    if int(df) != df or df < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df}")
    x = q / 2.0
    if x == 0.0:
        return 1.0
    m, odd = divmod(int(df), 2)
    half = 0.5 * odd
    log_x = math.log(x)
    p = math.erfc(math.sqrt(x)) if odd else 0.0
    for j in range(m):
        p += math.exp((j + half) * log_x - x - math.lgamma(j + half + 1.0))
    # Rounding can carry a sum near 1 a few ulp above it.
    return min(p, 1.0)


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

    X'WX is scaled to a unit diagonal and factored by LAPACK's Cholesky
    (``np.linalg.cholesky``); this is the one factorization behind every
    fit of the package, and the inverse is formed from its triangular
    factor. A column whose Cholesky pivot (a diagonal entry of the factor)
    is at most ``_PIVOT_FLOOR`` is a linear combination of the columns
    before it, and the first such column is reported in
    ``RankDeficiencyError``. A non-finite entry (from a non-finite design,
    or a product that overflowed) raises ``DomainError``.
    """
    if not np.isfinite(gram).all():
        raise DomainError("design matrix contains non-finite entries, or X'WX overflows")
    scale = np.sqrt(gram.diagonal())
    scale[scale == 0.0] = 1.0  # a zero column keeps a zero pivot below
    outer = scale[:, None] * scale
    unit = gram / outer
    try:
        chol = np.linalg.cholesky(unit)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(column=_refused_column(unit)) from None
    pivots = chol.diagonal()
    if not pivots.min() > _PIVOT_FLOOR:
        raise RankDeficiencyError(column=int(np.argmax(~(pivots > _PIVOT_FLOOR))))
    chol_inv = np.linalg.inv(chol)
    return (chol_inv.T @ chol_inv) / outer


def _refused_column(unit: np.ndarray) -> int:
    """The column to report for a unit-diagonal Gram matrix that LAPACK refused.

    LAPACK stops at a squared pivot <= 0 (a zero or exactly dependent
    column) without saying where, and an earlier column may already fail
    the floor. The leading k x k blocks are factored for k = 1, 2, ...;
    the first one refused, or whose last pivot is at most
    ``_PIVOT_FLOOR``, names column k - 1. The whole matrix is the last
    block, so it names the last column if no smaller block does.
    """
    p = unit.shape[0]
    for k in range(1, p):
        try:
            pivot = np.linalg.cholesky(unit[:k, :k])[k - 1, k - 1]
        except np.linalg.LinAlgError:
            return k - 1
        if not pivot > _PIVOT_FLOOR:
            return k - 1
    return p - 1


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
    # A copy of X in its layout: numpy computes X.T @ X of one buffer with a
    # symmetric rank-k update, several times slower here than that of two.
    Xw = X.copy(order="K")
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
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


def refine_scan(derivatives, grid, values) -> tuple[np.ndarray, np.ndarray]:
    """Refine the best point of a scan of C smooth 1-D functions, lane by lane.

    ``grid`` and ``values`` have shape (C, P): lane j's P scan points, in
    increasing order, and its function at them. Each lane's best scan
    point is the start of ``newton_in_bracket``, whose bracket it spans
    with its two neighbours; a best point at an end of the grid is its
    own neighbour on that side. ``derivatives`` is as for
    ``newton_in_bracket``. Returns (x, steps taken), both of shape (C,).
    """
    rows, i = np.arange(len(grid)), np.argmin(values, axis=-1)
    return newton_in_bracket(derivatives, grid[rows, np.maximum(i - 1, 0)],
                             grid[rows, np.minimum(i + 1, grid.shape[-1] - 1)], grid[rows, i])


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


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of a and b over the last axis, one BLAS dot per row.

    Row k of the result equals the 1-D ``a[k] @ b[k]`` to the last bit,
    for stacks of any shape, so a lane of a stacked computation keeps its
    one-lane numbers.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
