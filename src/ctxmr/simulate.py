"""Data-generating process for the simulation study.

Each of K contexts contributes ``per_context_n`` individuals. For
individual i in context k:

    g ~ Binomial(2, maf)                     (allele count)
    u, e_x, e_y ~ Normal(0, 1) independent   (confounder and noise)
    x = alpha_k + instrument_effect * g + u + e_x
    y = f(x) + e_y - u

so the confounder u raises the exposure and lowers the outcome by one
unit each (c_x = 1, c_y = -1), and f is one of three effect shapes:
linear (slope 0.8), quadratic (coefficient 0.04), or threshold (slope
0.25 above a knot at 10, continuous at the knot).
The context shifts alpha_k come from one of two built-in grids
("larger": 8.0, 8.2, ..., 9.8; "smaller": 9.0, 9.1, ..., 9.9) or a
custom list.

Randomness is counter-based and splittable: each (replication, context)
pair derives its own Philox stream from (master_seed, replication,
context index), so datasets are bit-identical for a given seed no matter
how the surrounding experiment is scheduled. Within a stream the draw
order is fixed (two Bernoulli vectors for the allele count, then the
three normal vectors, sampled by numpy's ziggurat method).

The draws depend on the scenario only through (contexts, per_context_n,
maf), its ``draw_key``; the effect shape, the shifts alpha_k and the
instrument effect act afterwards. ``draw_context`` fills one context's
four rows from its stream; it is the one draw routine.
``generate_dataset`` calls it for every context of a replication into
(K, n) arrays, builds one scenario's exposure and outcome from them and
flattens both into a Dataset. The simulation engine
(``harness.Workspace``) calls it into the rows of its own bounded block,
a few contexts at a time, and reuses the draws across scenarios without
building a Dataset. A cell has at most ``_MAX_CONTEXTS`` contexts of at
most ``_MAX_PER_CONTEXT_N`` participants.

``effect_inplace`` is the one formula of each effect shape. It overwrites
a float array, so the engine evaluates f with no temporaries;
``effect_value``, the public entry, copies its input and checks that it
is finite first. Scenario and effect parameters are checked to be finite
when they are constructed; an exposure or outcome that still overflows
the float range is an estimation error of its cell (see ``harness``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dataset
from .errors import ConfigError, DomainError

#: The named exposure-shift grids: alpha_j = start + step * j.
ALPHA_GRIDS = {"larger": (8.0, 0.2), "smaller": (9.0, 0.1)}

#: R-squared this close to 1 makes the F statistic meaningless; cap it.
_F_CAP_R2 = 1.0 - 1e-12

#: The most contexts and the most participants per context of one cell, so
#: that an oversized config is refused before anything is allocated.
_MAX_CONTEXTS = 10_000
_MAX_PER_CONTEXT_N = 1_000_000


def _require_finite(obj, *names: str) -> None:
    """Raise ConfigError naming the first of these fields that holds a non-finite number."""
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(value).all():
            raise ConfigError(f"{name} must be finite, got {value!r}")


def alpha_grid(name: str, contexts: int = 10) -> tuple[float, ...]:
    """The first ``contexts`` alphas of the grid ``name``, a key of ALPHA_GRIDS.

    A custom grid is a list of numbers, which ``parse_scenario_config``
    reads itself.
    """
    if name not in ALPHA_GRIDS:
        raise ConfigError(f"unknown alpha grid {name!r}")
    start, step = ALPHA_GRIDS[name]
    return tuple(round(start + step * j, 10) for j in range(contexts))


LARGER_GRID = alpha_grid("larger")
SMALLER_GRID = alpha_grid("smaller")


@dataclass(frozen=True)
class EffectFunction:
    """Shape of the causal effect of the exposure on the outcome."""

    kind: str
    slope: float = 0.8
    coefficient: float = 0.04
    knot: float = 10.0

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic", "threshold"):
            raise ConfigError(f"unknown effect kind {self.kind!r}")
        _require_finite(self, "slope", "coefficient", "knot")

    @classmethod
    def linear(cls, slope: float = 0.8) -> "EffectFunction":
        return cls(kind="linear", slope=slope)

    @classmethod
    def quadratic(cls, coefficient: float = 0.04) -> "EffectFunction":
        return cls(kind="quadratic", coefficient=coefficient)

    @classmethod
    def threshold(cls, slope: float = 0.25, knot: float = 10.0) -> "EffectFunction":
        return cls(kind="threshold", slope=slope, knot=knot)


def effect_inplace(effect: EffectFunction, x: np.ndarray) -> np.ndarray:
    """Overwrite the finite float array x with the effect function at x; return x.

    The threshold shape is max(x - knot, 0) times the slope, so x at or
    below the knot gives +0.0 for a positive slope, never -0.0.
    """
    if effect.kind == "linear":
        x *= effect.slope
    elif effect.kind == "quadratic":
        np.square(x, out=x)
        x *= effect.coefficient
    else:
        x -= effect.knot
        np.maximum(x, 0.0, out=x)
        x *= effect.slope
    return x


def effect_value(effect: EffectFunction, x):
    """Evaluate the effect function at x (scalar or array)."""
    x = np.array(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("effect function requires finite exposure values")
    out = effect_inplace(effect, x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SimScenario:
    """One cell of the simulation design."""

    effect: EffectFunction = field(default_factory=EffectFunction.linear)
    alphas: tuple[float, ...] = LARGER_GRID
    per_context_n: int = 10_000
    instrument_effect: float = 0.5
    maf: float = 0.3

    def __post_init__(self):
        if len(self.alphas) < 2:
            raise ConfigError(f"need at least 2 contexts, got {len(self.alphas)}")
        if len(self.alphas) > _MAX_CONTEXTS:
            raise ConfigError(f"contexts must be at most {_MAX_CONTEXTS}, got {len(self.alphas)}")
        if self.per_context_n < 10:
            raise ConfigError(f"per-context n must be >= 10, got {self.per_context_n}")
        if self.per_context_n > _MAX_PER_CONTEXT_N:
            raise ConfigError(f"per_context_n must be at most {_MAX_PER_CONTEXT_N}, "
                              f"got {self.per_context_n}")
        if not 0.0 < self.maf < 1.0:
            raise ConfigError(f"minor allele frequency must be in (0, 1), got {self.maf}")
        _require_finite(self, "alphas", "instrument_effect")

    @property
    def contexts(self) -> int:
        return len(self.alphas)

    @property
    def grid_name(self) -> str:
        """The ALPHA_GRIDS name whose grid of this length this is, else "custom"."""
        return next(
            (name for name in ALPHA_GRIDS if self.alphas == alpha_grid(name, len(self.alphas))),
            "custom",
        )


def _context_rng(master_seed: int, replication: int, context_index: int):
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication, context_index))
    return np.random.Generator(np.random.Philox(seq))


def draw_key(scenario: SimScenario) -> tuple[int, int, float]:
    """The scenario fields that determine its draws (see ``draw_context``)."""
    return scenario.contexts, scenario.per_context_n, scenario.maf


def draw_context(master_seed: int, replication: int, k: int, maf: float,
                 g: np.ndarray, u: np.ndarray, e_x: np.ndarray, e_y: np.ndarray) -> None:
    """Fill the float rows g, u, e_x and e_y (one length each) with context k's draws.

    They come from the stream of (master_seed, replication, k) alone, so
    scenarios with the same ``draw_key`` see the same draws.
    """
    rng = _context_rng(master_seed, replication, k)
    g[:] = rng.random(g.size) < maf
    g += rng.random(g.size) < maf
    for row in (u, e_x, e_y):
        rng.standard_normal(out=row)


def generate_dataset(
    scenario: SimScenario, master_seed: int, replication: int = 0
) -> Dataset:
    """Draw one simulated dataset; bit-identical for a given (seed, rep)."""
    # g is an array of its own: the Dataset keeps it, but none of the noise.
    g = np.empty((scenario.contexts, scenario.per_context_n))
    u, e_x, e_y = noise = np.empty((3, *g.shape))
    for k in range(scenario.contexts):
        draw_context(master_seed, replication, k, scenario.maf, g[k], *noise[:, k])
    x = np.asarray(scenario.alphas)[:, None] + scenario.instrument_effect * g
    x += u + e_x
    y = effect_value(scenario.effect, x)
    y += e_y - u
    return Dataset(
        instrument=g.ravel(),
        exposure=x.ravel(),
        outcome=y.ravel(),
        context=np.repeat(
            np.array([str(k + 1) for k in range(scenario.contexts)]),
            scenario.per_context_n,
        ),
        covariates=np.empty((x.size, 0)),
    )


@dataclass(frozen=True)
class InstrumentStrength:
    r2: float
    f_stat: float
    capped: bool = False


def instrument_strength(ds: Dataset) -> InstrumentStrength:
    """Pooled R-squared of exposure on instrument and the implied F statistic.

    Pooled means across all contexts at once, so between-context exposure
    differences count toward the total variance. (The per-context
    alternative would average the K within-context statistics instead.)
    F = (n - 2) R^2 / (1 - R^2); a perfectly correlated instrument is
    reported with ``capped=True`` and an infinite F.
    """
    g = ds.instrument
    x = ds.exposure
    n = len(ds)
    if n < 3:
        raise DomainError("instrument strength needs at least 3 records")
    gc = g - g.mean()
    xc = x - x.mean()
    denom = float(gc @ gc) * float(xc @ xc)
    if denom == 0.0:
        return InstrumentStrength(r2=0.0, f_stat=0.0)
    r2 = float(gc @ xc) ** 2 / denom
    if r2 >= _F_CAP_R2:
        return InstrumentStrength(r2=r2, f_stat=float("inf"), capped=True)
    return InstrumentStrength(r2=r2, f_stat=(n - 2) * r2 / (1.0 - r2))


def parse_scenario_config(text: str) -> SimScenario:
    """Parse a key = value scenario description.

    Recognized keys: effect (linear|quadratic|threshold), alpha_grid
    (larger|smaller|comma-separated numbers), contexts, per_context_n,
    instrument_effect, maf, linear_slope, quadratic_coefficient,
    threshold_slope, threshold_knot. Lines starting with '#' are comments.
    A value that does not parse (an integer for contexts and per_context_n,
    a finite number for the other numeric keys and for each entry of a
    custom alpha_grid) raises ConfigError naming the key and the value, as
    do a key given twice (naming both lines), a contexts below 3 or above
    ``_MAX_CONTEXTS`` (checked before a named grid is built) and a contexts
    that differs from the length of a custom alpha_grid.
    """
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"scenario config line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"scenario config key {key!r} is given twice, "
                              f"on lines {lines[key]} and {lineno}")
        entries[key], lines[key] = value, lineno

    def convert(key, raw, kind=float):
        try:
            value = kind(raw)
        except ValueError:
            value = None
        if value is None or not np.isfinite(value):
            expected = "an integer" if kind is int else "a finite number"
            raise ConfigError(f"scenario config key {key!r}: {raw!r} is not {expected}")
        return value

    def number(key, default, kind=float):
        return convert(key, entries.pop(key), kind) if key in entries else default

    kind = entries.pop("effect", "linear")
    effect = EffectFunction(
        kind=kind,
        slope=number("threshold_slope", 0.25) if kind == "threshold"
        else number("linear_slope", 0.8),
        coefficient=number("quadratic_coefficient", 0.04),
        knot=number("threshold_knot", 10.0),
    )
    contexts = number("contexts", None, int)
    if contexts is not None and contexts < 3:
        raise ConfigError(f"scenario config key 'contexts': {contexts} is below 3, "
                          "the fewest the trend test needs")
    if contexts is not None and contexts > _MAX_CONTEXTS:
        raise ConfigError(f"scenario config key 'contexts': {contexts} is above "
                          f"{_MAX_CONTEXTS}, the most a cell may have")
    grid_spec = entries.pop("alpha_grid", "larger")
    if grid_spec in ALPHA_GRIDS:
        alphas = alpha_grid(grid_spec, 10 if contexts is None else contexts)
    else:
        alphas = tuple(convert("alpha_grid", v.strip()) for v in grid_spec.split(","))
        if contexts not in (None, len(alphas)):
            raise ConfigError(f"scenario config key 'contexts': {contexts} differs from the "
                              f"{len(alphas)} values of alpha_grid")
    scenario = SimScenario(
        effect=effect,
        alphas=alphas,
        per_context_n=number("per_context_n", 10_000, int),
        instrument_effect=number("instrument_effect", 0.5),
        maf=number("maf", 0.3),
    )
    # Unused effect-parameter keys are fine; anything else is a typo.
    leftovers = set(entries) - {"linear_slope", "quadratic_coefficient",
                                "threshold_slope", "threshold_knot"}
    if leftovers:
        raise ConfigError(f"unknown scenario config keys: {sorted(leftovers)}")
    return scenario
