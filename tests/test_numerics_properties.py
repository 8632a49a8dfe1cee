"""The lane-vectorized Newton search against the scalar loop it replaced.

Each lane of ``numerics.newton_in_bracket`` must take exactly the steps of
``oracles.newton_in_bracket_scalar`` and stop on the same float, whatever
the other lanes do.
"""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr.numerics import newton_in_bracket  # noqa: E402

from oracles import newton_in_bracket_scalar  # noqa: E402


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
