"""The numerical primitives against the Python loops they replaced.

Each lane of ``numerics.newton_in_bracket`` must take exactly the steps of
``oracles.newton_in_bracket_scalar`` and stop on the same float, whatever
the other lanes do. ``numerics.gram_inverse``, one LAPACK Cholesky, must
give the inverse of ``oracles.gram_inverse_loop`` to rounding and name
the same dependent column.
"""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr.errors import RankDeficiencyError  # noqa: E402
from ctxmr.numerics import _PIVOT_FLOOR, gram_inverse, newton_in_bracket  # noqa: E402

from oracles import gram_inverse_loop, newton_in_bracket_scalar  # noqa: E402


def _lane_derivatives(kind, m, s):
    """The (d1, d2) of one test lane as a function of a float x."""
    return {
        "cosh": lambda x: (s * math.sinh(x - m), s * math.cosh(x - m)),
        "cos": lambda x: (math.sin(s * (x - m)), s * math.cos(s * (x - m))),
        "constant": lambda x: (m or 1.0, s),
        "flat": lambda x: (0.0, s),
        "nan-curvature": lambda x: (x - m, math.nan),
    }[kind]


# One lane: its kind of function, two parameters, its bracket [lo, lo + width]
# and where in the bracket it starts (its ends included).
LANE = st.tuples(
    st.sampled_from(["cosh", "cos", "constant", "flat", "nan-curvature"]),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 4.0),
    st.floats(-5.0, 5.0),
    st.floats(1e-3, 10.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(LANE, min_size=1, max_size=8))
@example([("constant", 1.0, 1.0, 0.0, 0.5, 0.0),      # slope out of the bracket: 1 step
          ("cos", 0.0, 1.0, -1.0, 4.0, 0.875),        # concave at the start: bisects
          ("flat", 0.0, 1.0, 0.0, 1.0, 0.5),          # d1 == 0: stops at step 1
          ("cosh", 0.3, 1.0, -1.0, 3.0, 0.8333),      # Newton steps
          ("nan-curvature", 0.2, 1.0, 0.0, 1.0, 0.3)])  # no curvature: bisects
def test_lanes_match_the_scalar_reference(lanes):
    functions = [_lane_derivatives(kind, m, s) for kind, m, s, *_ in lanes]
    lo = np.array([lane[3] for lane in lanes])
    hi = lo + np.array([lane[4] for lane in lanes])
    x0 = lo + np.array([lane[5] for lane in lanes]) * (hi - lo)

    def derivatives(x):
        d1, d2 = zip(*(f(float(v)) for f, v in zip(functions, x)))
        return np.array(d1), np.array(d2)

    xs, steps = newton_in_bracket(derivatives, lo, hi, x0)
    reference = [newton_in_bracket_scalar(f, float(a), float(b), float(c))
                 for f, a, b, c in zip(functions, lo, hi, x0)]
    assert xs.tolist() == [x for x, _ in reference]
    assert steps.tolist() == [n for _, n in reference]


def _weighted_design(seed, p, n):
    """An intercept and p - 1 centred columns of mixed scales, with IRLS-like weights.

    Column j (j >= 2) is correlated with column j - 1 at a drawn rho of up
    to 0.999, so the unit-diagonal X'WX is full rank but not orthogonal.
    """
    rng = np.random.default_rng(seed)
    X = np.ones((n, p))
    for j in range(1, p):
        col = rng.normal(size=n)
        if j >= 2:
            rho = rng.uniform(0.0, 0.999)
            prev = (X[:, j - 1] - X[:, j - 1].mean()) / X[:, j - 1].std()
            col = rho * prev + np.sqrt(1.0 - rho**2) * col
        X[:, j] = (col - col.mean()) * 10.0 ** rng.uniform(-3.0, 3.0)
    return X, rng.uniform(1e-6, 0.25, size=n)


def _outcome(gram):
    """("ok", inverse) or ("rank", column) from ``numerics.gram_inverse``."""
    try:
        return "ok", gram_inverse(gram)
    except RankDeficiencyError as err:
        return "rank", err.column


def _oracle_outcome(gram):
    inverse, column = gram_inverse_loop(gram, _PIVOT_FLOOR)
    return ("ok", inverse) if column is None else ("rank", column)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(8, 120))
def test_full_rank_inverse_matches_the_loop(seed, p, extra_rows):
    X, w = _weighted_design(seed, p, 2 * p + extra_rows)
    gram = (X * w[:, None]).T @ X
    kind, got = _outcome(gram)
    want_kind, want = _oracle_outcome(gram)
    assert kind == want_kind == "ok"
    # Entry (i, j) is bounded by sqrt(cov_ii cov_jj): compare on that scale.
    entry_scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert (np.abs(got - want) <= 1e-12 * entry_scale).all()


# How column j of a design is made dependent on the columns before it:
# weighted 1 - R^2 = pivot^2, exactly 0 for the first three (up to rounding
# in X'WX), and 5% below or above _PIVOT_FLOOR for the last two.
DEPENDENCE = st.sampled_from(["zero", "duplicate", "combination", "below-floor", "above-floor"])


def _dependent_design(seed, p, j, kind, later):
    """X'WX of a weighted design whose column j is ``kind`` and column ``later``, if any, zero."""
    X, w = _weighted_design(seed, p, 3 * p + 20)
    rng = np.random.default_rng(seed + 1)
    before = X[:, :j]
    if kind == "zero":
        X[:, j] = 0.0
    elif kind == "duplicate":
        X[:, j] = before[:, rng.integers(j)]
    elif kind == "combination":
        X[:, j] = before @ rng.normal(size=j)
    else:
        target = _PIVOT_FLOOR * (0.95 if kind == "below-floor" else 1.05)
        sw = np.sqrt(w)
        inside = before @ rng.normal(size=j)
        # The part of a fresh column that is w-orthogonal to the columns before j.
        fresh = rng.normal(size=X.shape[0])
        coef, *_ = np.linalg.lstsq(before * sw[:, None], fresh * sw, rcond=None)
        outside = fresh - before @ coef
        inside, outside = (v / np.sqrt(v * v @ w) for v in (inside, outside))
        X[:, j] = np.sqrt(1.0 - target**2) * inside + target * outside
        X[:, j] *= 10.0 ** rng.uniform(-3.0, 3.0)
    if later is not None:
        X[:, later] = 0.0
    return (X * w[:, None]).T @ X


@st.composite
def dependent_cases(draw):
    """(seed, p, j, kind, later): column j is ``kind``; column ``later`` > j, if given, is zero."""
    p = draw(st.integers(2, 12))
    j = draw(st.integers(1, p - 1))
    later = draw(st.none() | st.integers(j + 1, p - 1)) if j < p - 1 else None
    return draw(st.integers(0, 2**32 - 1)), p, j, draw(DEPENDENCE), later


@settings(max_examples=300, deadline=None)
@given(dependent_cases())
@example((1, 4, 2, "zero", None))          # LAPACK refuses at column j
@example((2, 5, 1, "below-floor", 4))      # accepted at j, refused at the later zero
@example((3, 5, 1, "above-floor", 4))      # passes at j, refused at the later zero
@example((4, 12, 6, "duplicate", None))
def test_dependent_column_is_the_one_the_loop_names(case):
    seed, p, j, kind, later = case
    gram = _dependent_design(seed, p, j, kind, later)
    column = later if kind == "above-floor" else j
    want = ("ok",) if column is None else ("rank", column)
    assert _oracle_outcome(gram)[:len(want)] == want
    assert _outcome(gram)[:len(want)] == want


def test_a_matrix_lapack_refuses_is_searched_block_by_block():
    # Column 1 fails the floor with a positive pivot, which LAPACK accepts;
    # column 3 is zero, where LAPACK stops. The rank test names column 1.
    gram = _dependent_design(seed=7, p=4, j=1, kind="below-floor", later=3)
    scale = np.sqrt(np.diag(gram))
    scale[scale == 0.0] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram / np.outer(scale, scale))
    assert _outcome(gram) == ("rank", 1) == _oracle_outcome(gram)
