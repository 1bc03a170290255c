"""Raw-input preparation: z-scores, imputation, ICE, expected counts, SMR.

These are the deterministic transformations applied before any model is
fit. All of them treat NaN as "missing", never mutate their inputs, and
are safe to parallelise per column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, ValidationError

__all__ = [
    "IndicatorPanel",
    "StrataTable",
    "standardize",
    "impute_by_group",
    "compute_ice",
    "derive_reference_rates",
    "expected_counts",
    "smr",
]


@dataclass
class IndicatorPanel:
    """N areas by P indicators, NaN marking missing cells.

    ``groups`` carries the label (state) used by group-level imputation.
    ``imputed`` flags cells that were filled rather than observed.
    """

    area_ids: list[str]
    columns: list[str]
    values: np.ndarray
    groups: list[str] | None = None
    imputed: np.ndarray | None = None
    missing: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("panel values must be a 2-d array")
        n, p = self.values.shape
        if len(self.area_ids) != n:
            raise DimensionMismatchError("area_ids length != number of rows")
        if len(self.columns) != p:
            raise DimensionMismatchError("columns length != number of columns")
        if self.groups is not None and len(self.groups) != n:
            raise DimensionMismatchError("groups length != number of rows")
        if self.imputed is None:
            self.imputed = np.zeros((n, p), dtype=bool)
        if self.missing is not None and self.missing.shape != (n, p):
            raise DimensionMismatchError("missing mask must match values shape")

    @property
    def n_areas(self) -> int:
        return self.values.shape[0]

    @property
    def n_indicators(self) -> int:
        return self.values.shape[1]

    @property
    def observed_mask(self) -> np.ndarray:
        """Observed = finite and not explicitly masked out.

        The explicit ``missing`` mask exists so callers can prove that
        whatever value sits in a masked cell never leaks into a fit.
        """
        obs = np.isfinite(self.values)
        if self.missing is not None:
            obs &= ~self.missing
        return obs


def standardize(panel: IndicatorPanel) -> IndicatorPanel:
    """Z-score each column over its observed entries.

    Uses the sample (n-1) standard deviation. Missing cells stay missing.
    A column with fewer than 2 observed values or zero sd is an error
    naming the column. Idempotent up to floating point.
    """
    values = panel.values.copy()
    observed = panel.observed_mask
    for p, name in enumerate(panel.columns):
        col = values[:, p]
        obs = observed[:, p]
        if obs.sum() < 2:
            raise ValidationError(
                f"column {name!r} has fewer than 2 observed values"
            )
        mean = col[obs].mean()
        sd = col[obs].std(ddof=1)
        if sd == 0.0:
            raise ValidationError(f"column {name!r} has zero standard deviation")
        values[obs, p] = (col[obs] - mean) / sd
    return replace(panel, values=values, imputed=panel.imputed.copy())


def impute_by_group(panel: IndicatorPanel, stat: str = "mean") -> IndicatorPanel:
    """Fill missing cells with the same-column statistic of their group.

    ``stat`` is "mean" (default) or "median". A group with no observed
    values in a column falls back to the column's global statistic; both
    kinds of fill are flagged in ``imputed``. Observed cells are never
    altered.
    """
    if panel.groups is None:
        raise ValidationError("panel has no group labels for imputation")
    if stat not in ("mean", "median"):
        raise ValidationError(f"unknown imputation statistic {stat!r}")
    agg = np.mean if stat == "mean" else np.median
    values = panel.values.copy()
    imputed = panel.imputed.copy()
    observed = panel.observed_mask
    groups = np.asarray(panel.groups)
    for p, name in enumerate(panel.columns):
        col = values[:, p]
        obs = observed[:, p]
        missing = ~obs
        if not missing.any():
            continue
        if not obs.any():
            raise ValidationError(f"column {name!r} has no observed values at all")
        global_stat = float(agg(col[obs]))
        for g in np.unique(groups[missing]):
            rows = missing & (groups == g)
            group_obs = col[obs & (groups == g)]
            fill = float(agg(group_obs)) if group_obs.size else global_stat
            values[rows, p] = fill
            imputed[rows, p] = True
    return replace(panel, values=values, imputed=imputed, missing=None)


def compute_ice(
    privileged: np.ndarray, deprived: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """Index of concentration at the extremes, ``(A - P) / T`` per area.

    +1 means the whole population sits in the privileged extreme, -1 the
    deprived extreme, 0 balance. Areas with missing total get missing ICE.
    Requires ``A, P >= 0``, ``A + P <= T`` and ``T > 0`` wherever observed.
    """
    a = np.asarray(privileged, dtype=float)
    p = np.asarray(deprived, dtype=float)
    t = np.asarray(total, dtype=float)
    if not (a.shape == p.shape == t.shape):
        raise DimensionMismatchError("privileged, deprived, total must align")
    obs = np.isfinite(t)
    bad = obs & ~(t > 0)
    if bad.any():
        raise ValidationError(f"total must be positive (first offence at index {bad.argmax()})")
    neg = obs & ((a < 0) | (p < 0))
    if neg.any():
        raise ValidationError(f"negative extreme count at index {neg.argmax()}")
    over = obs & (a + p > t * (1 + 1e-12))
    if over.any():
        raise ValidationError(
            f"privileged + deprived exceeds total at index {over.argmax()}"
        )
    out = np.full(a.shape, np.nan)
    out[obs] = (a[obs] - p[obs]) / t[obs]
    return out


@dataclass
class StrataTable:
    """Per-area, per-stratum populations with optional deaths and rates.

    A stratum is an age-by-sex cell. ``rates`` are the reference death
    rates used for indirect standardisation; when absent they can be
    derived from ``deaths`` pooled across all areas.
    """

    area_ids: list[str]
    strata: list[str]
    population: np.ndarray
    deaths: np.ndarray | None = None
    rates: np.ndarray | None = None

    def __post_init__(self):
        self.population = np.asarray(self.population, dtype=float)
        n, s = len(self.area_ids), len(self.strata)
        if self.population.shape != (n, s):
            raise DimensionMismatchError("population must be (n_areas, n_strata)")
        if (self.population < 0).any():
            raise ValidationError("populations must be nonnegative")
        if self.deaths is not None:
            self.deaths = np.asarray(self.deaths, dtype=float)
            if self.deaths.shape != (n, s):
                raise DimensionMismatchError("deaths must be (n_areas, n_strata)")
        if self.rates is not None:
            self.rates = np.asarray(self.rates, dtype=float)
            if self.rates.shape != (s,):
                raise DimensionMismatchError("rates must have one entry per stratum")
            if ((self.rates < 0) | (self.rates > 1)).any():
                raise ValidationError("reference rates must lie in [0, 1]")


def derive_reference_rates(strata: StrataTable) -> np.ndarray:
    """Pooled stratum-specific death rates across all areas.

    ``rate_s = sum_i deaths_is / sum_i population_is``. Using these rates
    in :func:`expected_counts` makes total expected equal total observed
    deaths by construction.
    """
    if strata.deaths is None:
        raise ValidationError("cannot derive rates without stratum death counts")
    if not np.isfinite(strata.deaths).all():
        raise ValidationError(
            "cannot derive rates from suppressed death counts; supply a rates file"
        )
    pop = strata.population.sum(axis=0)
    dth = strata.deaths.sum(axis=0)
    rates = np.zeros_like(pop)
    nonzero = pop > 0
    if (dth[~nonzero] > 0).any():
        raise ValidationError("stratum has deaths but zero population")
    rates[nonzero] = dth[nonzero] / pop[nonzero]
    return rates


def expected_counts(strata: StrataTable, rates: np.ndarray | None = None) -> np.ndarray:
    """Indirectly standardised expected counts ``E_i = sum_s pop_is rate_s``.

    ``rates`` defaults to the table's own, else to internally derived
    pooled rates. Areas with zero total population get E = 0 and a
    warning; the stage-2 Poisson likelihood leaves them out, so their
    random effects follow the prior.
    """
    if rates is None:
        rates = strata.rates if strata.rates is not None else derive_reference_rates(strata)
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (len(strata.strata),):
        raise DimensionMismatchError("rates must have one entry per stratum")
    expected = strata.population @ rates
    empty = strata.population.sum(axis=1) == 0
    if empty.any():
        warnings.warn(
            f"{int(empty.sum())} area(s) have zero population; expected count set to 0"
        )
    return expected


def smr(observed: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Standardised mortality ratio Y/E; missing where Y is suppressed or E <= 0."""
    y = np.asarray(observed, dtype=float)
    e = np.asarray(expected, dtype=float)
    if y.shape != e.shape:
        raise DimensionMismatchError("observed and expected must align")
    out = np.full(y.shape, np.nan)
    ok = np.isfinite(y) & (e > 0)
    bad = np.isfinite(y) & ~(e > 0)
    if bad.any():
        warnings.warn(f"{int(bad.sum())} area(s) with nonpositive expected count excluded from SMR")
    out[ok] = y[ok] / e[ok]
    return out
