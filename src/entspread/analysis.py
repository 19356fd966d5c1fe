"""Time-series analytics for moment curves.

The raw moment of concurrence oscillates hard (the origin amplitude passes
through zeros), so exponent work always goes through a centered moving
average first; the default window of pi spans at least two full oscillation
periods.  Power laws are fitted by ordinary least squares in log-log space.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .analytic import w_bounds_ordered
from .observables import MOMENT_COLUMNS, MomentSample

AVERAGE_WINDOW_DEFAULT = math.pi

# Upper-bound checks only apply where the asymptotic form is meaningful.
UPPER_BOUND_MIN_TIME = 5.0

_FIELDS = MOMENT_COLUMNS[1:]
_row_values = attrgetter(*MOMENT_COLUMNS)
FIT_FIELDS = ("m", "w")


class MomentSeries:
    """Time-ordered moment rows plus an identifier of what generated them.

    The rows are one read-only float `table` of shape (n, len(MOMENT_COLUMNS)),
    built once.  Producers make a series with `from_table`; `samples=` builds
    one from MomentSample rows and `samples` reads them back.
    """

    def __init__(self, samples: Iterable[MomentSample] = (), spec_digest: str = ""):
        rows = [_row_values(s) for s in samples]
        table = np.array(rows, dtype=float).reshape(len(rows), len(MOMENT_COLUMNS))
        self._freeze(table, spec_digest)

    @classmethod
    def from_table(cls, table: np.ndarray, spec_digest: str = "") -> MomentSeries:
        """Series over a copy of `table`, whose columns are MOMENT_COLUMNS."""
        series = cls.__new__(cls)
        series._freeze(np.array(table, dtype=float), spec_digest)
        return series

    def _freeze(self, table: np.ndarray, spec_digest: str) -> None:
        if table.ndim != 2 or table.shape[1] != len(MOMENT_COLUMNS):
            raise ValueError(f"table must have shape (n, {len(MOMENT_COLUMNS)}), got {table.shape}")
        times = table[:, 0]
        if not np.all(np.isfinite(times)):
            raise ValueError(f"sample times must be finite, got {times[~np.isfinite(times)][0]}")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        bad = np.argwhere(~np.isfinite(table))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"column {MOMENT_COLUMNS[col]!r} must be finite, "
                             f"got {table[row, col]} at t = {times[row]:g}")
        table.flags.writeable = False
        self.table = table
        self.spec_digest = spec_digest

    @property
    def samples(self) -> tuple[MomentSample, ...]:
        return tuple(MomentSample(*row) for row in self.table.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MomentSeries):
            return NotImplemented
        return self.spec_digest == other.spec_digest and np.array_equal(self.table, other.table)

    def __len__(self) -> int:
        return len(self.table)

    def times(self) -> np.ndarray:
        return self.table[:, 0]

    def column(self, name: str) -> np.ndarray:
        if name not in _FIELDS:
            raise ValueError(f"unknown column {name!r}, expected one of {_FIELDS}")
        return self.table[:, MOMENT_COLUMNS.index(name)]


@dataclass(frozen=True)
class PowerLawFit:
    """m(t) ~ prefactor * t^exponent over the fit window, with log-log residual."""

    exponent: float
    prefactor: float
    window: tuple[float, float]
    rms_residual: float


def time_average(series: MomentSeries, window_width: float = AVERAGE_WINDOW_DEFAULT) -> MomentSeries:
    """Centered moving average of every field; half-window margins are trimmed.

    Output rows keep their original sample times.  The averaged rows are
    smoothed summaries: the exact product identity m = 2 alpha0 w holds only
    for raw rows.
    """
    if len(series) == 0:
        raise ValueError("cannot average an empty series")
    if window_width <= 0.0:
        raise ValueError(f"window_width must be > 0, got {window_width}")
    times = series.times()
    if len(series) > 1:
        mean_spacing = (times[-1] - times[0]) / (len(times) - 1)
        if window_width < 2.0 * mean_spacing:
            raise ValueError(
                f"window {window_width:g} holds fewer than 2 samples on average "
                f"(mean spacing {mean_spacing:g})"
            )

    half = 0.5 * window_width
    lo = np.searchsorted(times, times - half, side="left")
    hi = np.searchsorted(times, times + half, side="right")
    keep = (times >= times[0] + half) & (times <= times[-1] - half)
    if not np.any(keep):
        raise ValueError("window wider than the sampled span, nothing left after trimming")

    counts = (hi - lo)[keep]
    csum = np.concatenate((np.zeros((1, len(MOMENT_COLUMNS))), np.cumsum(series.table, axis=0)))
    averaged = (csum[hi] - csum[lo])[keep] / counts[:, None]
    averaged[:, 0] = times[keep]
    return MomentSeries.from_table(averaged, series.spec_digest)


def check_window(window: tuple[float, float]) -> None:
    """Reject a fit window unless t_lo < t_hi (so a NaN end fails too)."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"need t_lo < t_hi, got window {window}")


def _fit_window_values(series: MomentSeries, field_name: str, window: tuple[float, float]):
    if field_name not in FIT_FIELDS:
        raise ValueError(f"fit field must be one of {FIT_FIELDS}, got {field_name!r}")
    check_window(window)
    t_lo, t_hi = window
    times = series.times()
    mask = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"window {window} selects fewer than 2 samples")
    t = times[mask]
    y = series.column(field_name)[mask]
    if np.any(t <= 0.0):
        raise ValueError("window must contain positive times only")
    if np.any(y <= 0.0):
        raise ValueError(f"{field_name} must be positive throughout the window")
    return t, y


def fit_power_law(
    series: MomentSeries, field_name: str, window: tuple[float, float]
) -> PowerLawFit:
    """Least-squares line in log-log space: slope = exponent, exp(intercept) = prefactor."""
    t, y = _fit_window_values(series, field_name, window)
    logt = np.log(t)
    logy = np.log(y)
    slope, intercept = np.polyfit(logt, logy, 1)
    resid = logy - (slope * logt + intercept)
    return PowerLawFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        window=(float(window[0]), float(window[1])),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def local_exponent(series: MomentSeries, field_name: str) -> np.ndarray:
    """Centered d log(field) / d log(t) at interior samples, as rows (t, slope)."""
    if field_name not in FIT_FIELDS:
        raise ValueError(f"fit field must be one of {FIT_FIELDS}, got {field_name!r}")
    times = series.times()
    values = series.column(field_name)
    if len(times) < 3:
        raise ValueError("need at least 3 samples for a centered difference")
    if np.any(times <= 0.0) or np.any(values <= 0.0):
        raise ValueError("local exponent needs positive times and field values")
    logt = np.log(times)
    logy = np.log(values)
    slopes = (logy[2:] - logy[:-2]) / (logt[2:] - logt[:-2])
    return np.column_stack((times[1:-1], slopes))


@dataclass(frozen=True)
class BoundCheck:
    """One sample versus the ordered-chain envelope 2t^2 <= W <= 16/sqrt(pi) t^2.5."""

    time: float
    lower_ok: bool
    upper_ok: bool | None  # None below the asymptotic validity time
    w: float
    lower: float
    upper: float


@dataclass(frozen=True)
class BoundsReport:
    checks: tuple[BoundCheck, ...] = field(default_factory=tuple)

    @property
    def lower_failures(self) -> int:
        return sum(1 for c in self.checks if not c.lower_ok)

    @property
    def upper_failures(self) -> int:
        return sum(1 for c in self.checks if c.upper_ok is False)

    @property
    def upper_checked(self) -> int:
        return sum(1 for c in self.checks if c.upper_ok is not None)

    @property
    def passed(self) -> bool:
        return self.lower_failures == 0 and self.upper_failures == 0


def verify_bounds(series: MomentSeries) -> BoundsReport:
    """Per-sample envelope report for an ordered-chain series.

    The lower inequality gets a -1e-9 tolerance; the upper one is evaluated
    only for t >= 5.  This reports rather than asserts, so corrupt inputs
    come back as failure counts.
    """
    checks = []
    for t, w in zip(series.times().tolist(), series.column("w").tolist()):
        lower, upper = w_bounds_ordered(t)
        upper_ok = bool(w <= upper) if t >= UPPER_BOUND_MIN_TIME else None
        checks.append(
            BoundCheck(
                time=t,
                lower_ok=bool(w >= lower - 1e-9),
                upper_ok=upper_ok,
                w=w,
                lower=lower,
                upper=upper,
            )
        )
    return BoundsReport(checks=tuple(checks))
