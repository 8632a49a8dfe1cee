"""Tests for the special functions, the least-squares solver and the 1-D minimizer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ctxmr import numerics
from ctxmr.errors import DomainError, RankDeficiencyError
from ctxmr.numerics import (
    chi_square_sf,
    gram_inverse,
    newton_in_bracket,
    normal_sf,
    refine_scan,
    row_dot,
    wls_solve,
)

from oracles import chi_square_sf_quadrature, normal_sf_series


class TestChiSquareSf:
    def test_survival_at_zero(self):
        assert chi_square_sf(0.0, 9) == 1.0

    def test_against_quadrature_oracle(self):
        # Expected values frozen from the adaptive-quadrature oracle.
        assert chi_square_sf(0.5, 1) == pytest.approx(0.4795001221869535, abs=1e-10)
        assert chi_square_sf(22.2, 19) == pytest.approx(0.2744159351793254, abs=1e-10)
        for q in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 22.2, 40.0):
            for df in (1, 2, 3, 5, 9, 19, 30):
                assert chi_square_sf(q, df) == pytest.approx(
                    chi_square_sf_quadrature(q, df), abs=1e-10
                ), (q, df)

    def test_df2_is_exponential(self):
        for q in (0.0, 0.3, 1.0, 2.0, 7.5, 30.0):
            assert abs(chi_square_sf(q, 2) - math.exp(-q / 2)) < 1e-12

    def test_tail_of_o1_beyond_the_underflow_of_its_first_term(self):
        # At x = q/2 > 745, e^{-x} is 0.0, but for df/2 near x the tail is
        # near 1/2; every term is formed from its own logarithm. Expected
        # values frozen from scipy.special.chdtrc.
        assert math.exp(-800.0) == 0.0
        assert chi_square_sf(1600.0, 1600) == pytest.approx(0.4952983875783587, rel=1e-12)
        assert chi_square_sf(1600.0, 1601) == pytest.approx(0.5023511245209518, rel=1e-12)

    def test_monotone_decreasing_in_q(self):
        for df in (1, 4, 19):
            qs = np.linspace(0.0, 60.0, 301)
            vals = [chi_square_sf(q, df) for q in qs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_sf(-0.1, 3)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)
        with pytest.raises(DomainError):
            chi_square_sf(float("nan"), 3)


class TestNormalSf:
    def test_point_values(self):
        assert normal_sf(0.0) == 0.5
        assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-7)
        assert normal_sf(-3.0) == pytest.approx(0.9986501019683699, abs=1e-12)

    def test_against_series_oracle(self):
        for z in (-4.0, -2.5, -1.0, -0.3, 0.0, 0.7, 1.644854, 3.2, 4.5):
            assert normal_sf(z) == pytest.approx(normal_sf_series(z), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for z in rng.normal(scale=2.5, size=200):
            assert abs(normal_sf(z) + normal_sf(-z) - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            normal_sf(float("inf"))


class TestWlsSolve:
    def test_constant_fit(self):
        coef, _ = wls_solve(np.array([[1.0], [1.0]]), np.array([3.0, 3.0]))
        assert coef == pytest.approx([3.0])

    def test_exact_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        coef, _ = wls_solve(X, np.array([1.0, 3.0, 5.0]))
        assert coef == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_residuals_weighted_orthogonal_to_columns(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n, p = 60, 5
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            coef, _ = wls_solve(X, y)
            grad = X.T @ (y - X @ coef)
            scale = max(1.0, float(np.abs(X.T @ y).max()))
            assert np.abs(grad).max() <= 1e-8 * scale

    def test_covariance_matches_normal_equations(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 3))
        _, cov = wls_solve(X, rng.normal(size=30))
        expected = np.linalg.inv(X.T @ X)
        assert cov == pytest.approx(expected, rel=1e-8)

    def test_rank_deficiency_names_column(self):
        X = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0)])
        with pytest.raises(RankDeficiencyError) as exc:
            wls_solve(X, np.zeros(5))
        assert exc.value.column == 2

    def test_zero_design_is_rank_deficient(self):
        with pytest.raises(RankDeficiencyError) as exc:
            wls_solve(np.zeros((4, 1)), np.zeros(4))
        assert exc.value.column == 0

    @pytest.mark.parametrize("a, b", [(1.1886, -0.3003), (-1.9469, -0.0664), (0.0974, 0.8518)])
    def test_linear_combination_is_rank_deficient_despite_rounding(self, a, b):
        # Rounding in X'X leaves such a column with a pivot of a few 1e-7,
        # not zero; it must still be named as the first dependent column.
        rng = np.random.default_rng(106)
        n = 20_000
        x1 = rng.normal(size=n) * 1e-3
        x2 = rng.integers(0, 3, size=n).astype(float)
        cols = [c - c.mean() for c in (x1, x2, a * x1 + b * x2)]
        X = np.column_stack([np.ones(n), *cols])
        with pytest.raises(RankDeficiencyError) as exc:
            wls_solve(X, rng.normal(size=n))
        assert exc.value.column == 3

    def test_highly_correlated_column_is_accepted(self):
        # Correlation 0.999999 between two columns: a realistic extreme the
        # rank test must let through, with the answer of a QR-based solve.
        rng = np.random.default_rng(19)
        n = 5_000
        g = rng.normal(size=n)
        e = rng.normal(size=n)
        e -= (e @ g) / (g @ g) * g
        rho = 0.999999
        z = rho * g / g.std() + np.sqrt(1 - rho**2) * e / e.std()
        assert np.corrcoef(g, z)[0, 1] == pytest.approx(rho, abs=1e-9)
        X = np.column_stack([np.ones(n), g - g.mean(), z - z.mean()])
        y = 0.4 * g + 0.1 * z + rng.normal(size=n)
        coef, cov = wls_solve(X, y)
        ref = np.linalg.lstsq(X, y, rcond=None)[0]
        assert coef == pytest.approx(ref, rel=1e-7)
        r = np.linalg.qr(X, mode="r")
        r_inv = np.linalg.inv(r)
        assert cov == pytest.approx(r_inv @ r_inv.T, rel=1e-7)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_products_equal_the_unit_weight_products(self, order, monkeypatch):
        # X'X and X'y come from a copy of X; they must equal, to the last
        # bit, the products of X scaled by a vector of unit weights.
        grams = []
        monkeypatch.setattr(numerics, "gram_inverse",
                            lambda gram: grams.append(gram) or gram_inverse(gram))
        rng = np.random.default_rng(23)
        for n, p in [(5, 1), (40, 3), (1000, 4), (20_000, 6)]:
            X = np.array(rng.normal(size=(n, p)) * rng.uniform(0.1, 1e3, size=p), order=order)
            y = rng.normal(size=n)
            Xw = X * np.ones(n)[:, None]
            gram, rhs = Xw.T @ X, Xw.T @ y
            coef, _ = wls_solve(X, y)
            assert (grams.pop() == gram).all()
            assert (coef == gram_inverse(gram) @ rhs).all()

    def test_shape_and_domain_errors(self):
        with pytest.raises(DomainError):
            wls_solve(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(DomainError):
            wls_solve(np.ones((3, 1)), np.array([1.0, np.nan, 0.0]))
        with pytest.raises(DomainError):
            wls_solve(np.array([[1.0], [np.inf], [1.0]]), np.zeros(3))


class TestRowDot:
    """Each row of ``row_dot`` is, to the last bit, the 1-D dot product of that row."""

    def test_a_block_of_rows(self):
        a, b = np.random.default_rng(12).standard_normal((2, 10, 10_000))
        got = row_dot(a, b)
        assert got.shape == (10,)
        assert got.tolist() == [a[k] @ b[k] for k in range(10)]

    def test_a_stack_of_lanes_and_points(self):
        a, b = np.random.default_rng(13).standard_normal((2, 4, 64, 23))
        got = row_dot(a, b)
        assert got.shape == (4, 64)
        assert got.tolist() == [[a[c, g] @ b[c, g] for g in range(64)] for c in range(4)]

    def test_a_row_broadcast_over_the_points(self):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((4, 64, 23)), rng.standard_normal((4, 23))
        got = row_dot(a, b[:, None])
        assert got.tolist() == [[a[c, g] @ b[c] for g in range(64)] for c in range(4)]


def one_lane(derivatives, lo, hi, x):
    """``newton_in_bracket`` on one lane, for a ``derivatives`` of floats; (x, steps)."""
    xs, steps = newton_in_bracket(
        lambda v: tuple(np.array([d]) for d in derivatives(float(v[0]))), [lo], [hi], [x]
    )
    return float(xs[0]), int(steps[0])


class TestNewtonInBracket:
    def test_finds_the_minimum_of_a_smooth_function(self):
        # f(x) = cosh(x - 0.3): minimum at 0.3, curvature positive everywhere.
        x, steps = one_lane(lambda x: (math.sinh(x - 0.3), math.cosh(x - 0.3)), -1.0, 2.0, 1.5)
        assert x == pytest.approx(0.3, abs=1e-15)
        assert steps < 10

    def test_slope_out_of_the_bracket_returns_its_end_in_one_step(self):
        assert one_lane(lambda x: (1.0, 1.0), 0.0, 0.5, 0.0) == (0.0, 1)
        assert one_lane(lambda x: (-1.0, 1.0), 0.0, 0.5, 0.5) == (0.5, 1)

    def test_zero_step_is_kept(self):
        # x - d1 / d2 rounds to x itself: stop there rather than bisect.
        assert one_lane(lambda x: (1e-300, 1.0), 0.5, 2.0, 1.0) == (1.0, 1)

    def test_negative_curvature_bisects(self):
        # f(x) = -cos(x) on [-1, 3] from 2.5: concave there, so bisect first.
        x, steps = one_lane(lambda x: (math.sin(x), math.cos(x)), -1.0, 3.0, 2.5)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert steps < 20

    def test_noisy_slope_does_not_cycle_between_the_bracket_ends(self):
        # The slope flips sign about the midpoint of a bracket 11 ulp wide,
        # with a magnitude that sends each Newton step onto the far end.
        lo = 1.0
        hi = lo + 11 * np.spacing(lo)
        mid = 0.5 * (lo + hi)
        x, steps = one_lane(lambda x: (hi - lo if x > mid else lo - hi, 1.0), lo, hi, hi)
        assert lo <= x <= hi
        assert steps < 10


class TestRefineScan:
    @staticmethod
    def cosh_lanes(centres):
        """Derivatives of cosh(x - c), one lane per centre c; minimum at c."""
        return lambda x: (np.sinh(x - centres), np.cosh(x - centres))

    def test_refines_each_lane_from_its_best_scan_point(self):
        centres = np.array([0.3, -1.7, 2.05])
        grid = np.tile(np.linspace(-3.0, 3.0, 13), (3, 1))
        x, steps = refine_scan(self.cosh_lanes(centres), grid,
                               np.cosh(grid - centres[:, None]))
        assert x == pytest.approx(centres, abs=1e-15)
        assert (steps >= 1).all()

    def test_a_best_point_at_an_end_of_the_grid_is_its_own_neighbour(self):
        # The minima lie beyond the grid, so each bracket collapses onto its end.
        centres = np.array([-5.0, 5.0])
        grid = np.tile(np.linspace(-1.0, 1.0, 5), (2, 1))
        x, steps = refine_scan(self.cosh_lanes(centres), grid,
                               np.cosh(grid - centres[:, None]))
        assert x.tolist() == [-1.0, 1.0] and steps.tolist() == [1, 1]
