"""Data-generating process for the simulation study.

Each of K contexts contributes ``per_context_n`` individuals. For
individual i in context k:

    g ~ Binomial(2, maf)                     (allele count)
    u, e_x, e_y ~ Normal(0, 1) independent   (confounder and noise)
    x = alpha_k + instrument_effect * g + c_x * u + e_x
    y = f(x) + c_y * u + e_y

with confounder effects c_x = 1 and c_y = -1 by default and f one of
three effect shapes: linear (slope 0.8), quadratic (coefficient 0.04),
or threshold (slope 0.25 above a knot at 10, continuous at the knot).
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
coefficients act afterwards. ``draw_contexts`` therefore draws a whole
replication once as (K, n) arrays, ``context_blocks`` turns them into one
scenario's exposure and outcome, and ``generate_dataset`` flattens those
blocks into a Dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dataset
from .errors import ConfigError, DomainError

LARGER_GRID = tuple(round(8.0 + 0.2 * j, 10) for j in range(10))
SMALLER_GRID = tuple(round(9.0 + 0.1 * j, 10) for j in range(10))

_GRID_NAMES = {"larger": LARGER_GRID, "smaller": SMALLER_GRID}

#: R-squared this close to 1 makes the F statistic meaningless; cap it.
_F_CAP_R2 = 1.0 - 1e-12


def alpha_grid(name_or_values, contexts: int = 10) -> tuple[float, ...]:
    """Resolve a grid name ("larger"/"smaller") or explicit value list."""
    if isinstance(name_or_values, str):
        if name_or_values == "larger":
            start, step = 8.0, 0.2
        elif name_or_values == "smaller":
            start, step = 9.0, 0.1
        else:
            raise ConfigError(f"unknown alpha grid {name_or_values!r}")
        return tuple(round(start + step * j, 10) for j in range(contexts))
    values = tuple(float(a) for a in name_or_values)
    return values


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

    @classmethod
    def linear(cls, slope: float = 0.8) -> "EffectFunction":
        return cls(kind="linear", slope=slope)

    @classmethod
    def quadratic(cls, coefficient: float = 0.04) -> "EffectFunction":
        return cls(kind="quadratic", coefficient=coefficient)

    @classmethod
    def threshold(cls, slope: float = 0.25, knot: float = 10.0) -> "EffectFunction":
        return cls(kind="threshold", slope=slope, knot=knot)


def effect_value(effect: EffectFunction, x):
    """Evaluate the effect function at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("effect function requires finite exposure values")
    if effect.kind == "linear":
        out = effect.slope * x
    elif effect.kind == "quadratic":
        out = effect.coefficient * x**2
    else:
        out = effect.slope * np.where(x > effect.knot, x - effect.knot, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SimScenario:
    """One cell of the simulation design."""

    effect: EffectFunction = field(default_factory=EffectFunction.linear)
    alphas: tuple[float, ...] = LARGER_GRID
    per_context_n: int = 10_000
    instrument_effect: float = 0.5
    maf: float = 0.3
    confounder_effect_on_exposure: float = 1.0
    confounder_effect_on_outcome: float = -1.0

    def __post_init__(self):
        if len(self.alphas) < 2:
            raise ConfigError(f"need at least 2 contexts, got {len(self.alphas)}")
        if self.per_context_n < 10:
            raise ConfigError(f"per-context n must be >= 10, got {self.per_context_n}")
        if not 0.0 < self.maf < 1.0:
            raise ConfigError(f"minor allele frequency must be in (0, 1), got {self.maf}")

    @property
    def contexts(self) -> int:
        return len(self.alphas)

    @property
    def grid_name(self) -> str:
        for name, grid in _GRID_NAMES.items():
            if self.alphas == grid:
                return name
        return "custom"


def _context_rng(master_seed: int, replication: int, context_index: int):
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication, context_index))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class ContextDraws:
    """One replication's random draws, one row per context: shape (K, n) each."""

    g: np.ndarray
    u: np.ndarray
    e_x: np.ndarray
    e_y: np.ndarray


def draw_key(scenario: SimScenario) -> tuple[int, int, float]:
    """The scenario fields that determine its draws (see ``draw_contexts``)."""
    return scenario.contexts, scenario.per_context_n, scenario.maf


def draw_contexts(
    master_seed: int, replication: int, contexts: int, per_context_n: int, maf: float
) -> ContextDraws:
    """Draw (g, u, e_x, e_y) for every context of one replication.

    Row k comes from the stream of (master_seed, replication, k) alone, so
    scenarios with the same ``draw_key`` see the same draws.
    """
    shape = (contexts, per_context_n)
    g, u, e_x, e_y = (np.empty(shape) for _ in range(4))
    for k in range(contexts):
        rng = _context_rng(master_seed, replication, k)
        g[k] = rng.random(per_context_n) < maf
        g[k] += rng.random(per_context_n) < maf
        for out in (u, e_x, e_y):
            rng.standard_normal(out=out[k])
    return ContextDraws(g=g, u=u, e_x=e_x, e_y=e_y)


def context_blocks(scenario: SimScenario, draws: ContextDraws) -> tuple[np.ndarray, np.ndarray]:
    """Exposure and outcome of every context as (K, n) blocks."""
    x = np.asarray(scenario.alphas)[:, None] + scenario.instrument_effect * draws.g
    x += scenario.confounder_effect_on_exposure * draws.u + draws.e_x
    y = effect_value(scenario.effect, x)
    y += scenario.confounder_effect_on_outcome * draws.u + draws.e_y
    return x, y


def generate_dataset(
    scenario: SimScenario, master_seed: int, replication: int = 0
) -> Dataset:
    """Draw one simulated dataset; bit-identical for a given (seed, rep)."""
    draws = draw_contexts(master_seed, replication, *draw_key(scenario))
    x, y = context_blocks(scenario, draws)
    total = x.size
    return Dataset(
        instrument=draws.g.ravel(),
        exposure=x.ravel(),
        outcome=y.ravel(),
        context=np.repeat(
            np.array([str(k + 1) for k in range(scenario.contexts)]),
            scenario.per_context_n,
        ),
        covariates=np.empty((total, 0)),
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
    a finite number for the other numeric keys) raises ConfigError naming
    the key and the value.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"scenario config line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value

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
    contexts = number("contexts", 10, int)
    grid_spec = entries.pop("alpha_grid", "larger")
    if grid_spec in _GRID_NAMES:
        alphas = alpha_grid(grid_spec, contexts)
    else:
        alphas = tuple(
            convert("alpha_grid", v.strip()) for v in grid_spec.split(",") if v.strip()
        )
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
