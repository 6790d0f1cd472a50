"""Run metrics: hypergradient norm, consensus error, transient cutoffs.

A probe evaluates every cell of a (K, n, .) state at its row-mean
(network-average) iterate in one batched call: one row of ``COLUMNS`` per
cell. A ``RunRecord`` is a table of such rows, an integer ``t`` column and
one float array. The transient cutoff is the first probe from which the
smoothed curve of a decentralized run stays within a relative tolerance of
a centralized reference's, on a shared probe grid, to the horizon.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import problem as problem_mod

# The float columns of a probe row, in CSV order after t. All but the step
# size alpha are metrics: summarized across seeds, and each can be a run's
# transient metric. A new column is an entry here and its value in ``probe``.
COLUMNS = ("grad_sq_norm", "phi_gap", "consensus_error", "upper_loss", "alpha")
PROBE_METRICS = COLUMNS[:-1]
CSV_HEADER = ["t", *COLUMNS]
SUMMARY_HEADER = ["t", *(f"{m}_{stat}" for m in PROBE_METRICS for stat in ("mean", "stderr"))]


class MetricsError(ValueError):
    pass


class GridMismatch(MetricsError):
    pass


class EmptyInput(MetricsError):
    pass


class _Table:
    """Rows of an integer t, strictly increasing, and a float under each later ``header`` name,
    held as one (t, values) pair of read-only arrays."""

    header: list[str]

    def __init__(self, ts=(), values=()) -> None:
        self._ts = np.empty(0, dtype=np.int64)
        self._values = np.empty((0, len(self.header) - 1))
        if len(ts):
            self.add_probe(ts, values)

    def add_probe(self, ts, values) -> None:
        """File one row (an int and a row of floats) or a block (ts and one row each)."""
        ts = np.array(ts, dtype=np.int64, ndmin=1)
        values = np.array(values, dtype=float, ndmin=2)
        if values.shape != (len(ts), len(self.header) - 1):
            raise MetricsError(f"{values.shape} values for {len(ts)} rows of {self.header}")
        if (ts[:1] <= self._ts[-1:]).any() or (ts[1:] <= ts[:-1]).any():
            raise MetricsError("probe iterations must be strictly increasing")
        self._ts = np.concatenate([self._ts, ts])
        self._values = np.concatenate([self._values, values])
        self._ts.flags.writeable = self._values.flags.writeable = False

    @property
    def ts(self) -> np.ndarray:
        return self._ts.view()

    def column(self, name: str) -> np.ndarray:
        if name not in self.header[1:]:
            raise MetricsError(f"no column {name!r} in {self.header[1:]}")
        return self._values[:, self.header.index(name) - 1]

    def to_csv(self) -> str:
        """t as an int and every other cell as its float repr, which needs no quoting."""
        lines = [",".join(self.header)]
        lines += [f"{t},{','.join(map(repr, v))}"
                  for t, v in zip(self._ts.tolist(), self._values.tolist())]
        return "\n".join(lines) + "\n"


class RunRecord(_Table):
    """A run's probes: t and a row of ``COLUMNS`` each, in CSV_HEADER order."""

    header = CSV_HEADER

    @staticmethod
    def from_csv(text: str) -> "RunRecord":
        """Parse ``to_csv``'s layout; a bad header, line or cell raises MetricsError."""
        reader = csv.reader(io.StringIO(text))
        ts, rows = [], []
        try:
            if (header := next(reader, None)) != CSV_HEADER:
                raise MetricsError(f"unexpected CSV header: {header}")
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise MetricsError(
                        f"line {line}: {len(row)} cells, expected {len(CSV_HEADER)}")
                try:
                    ts.append(np.int64(row[0]))
                    rows.append([float(v) for v in row[1:]])
                except (ValueError, OverflowError) as exc:
                    raise MetricsError(f"line {line}: {exc}") from exc
        except csv.Error as exc:  # a field past csv.field_size_limit(), for one
            raise MetricsError(f"line {reader.line_num}: {exc}") from exc
        return RunRecord(ts, rows)


def consensus_error(state):
    """Mean squared deviation of (x_i, y_i, z_i) from their network means, per cell."""
    total = 0.0
    for M in (state.X, state.Y, state.Z):
        dev = (M - M.mean(axis=-2, keepdims=True)) ** 2
        # Summed flat, as np.sum sums an (n, .) array, so each cell rounds alike.
        total = total + dev.reshape(dev.shape[:-2] + (-1,)).sum(axis=-1)
    return total / state.X.shape[-2]


def probe(problem, state, alpha: float | np.ndarray) -> np.ndarray:
    """Each cell's row of ``COLUMNS`` at its row-mean iterate: (K, len(COLUMNS)) for a (K, n, .)
    state, one row for an (n, .) one.

    One batched lower solve serves every cell, and y*(x_bar) then serves
    z*, grad Phi and Phi alike. Row k is cell k's own (n, .) probe, bit for bit.
    For a stack of snapshots taken at different times, ``state.t`` and
    ``alpha`` may hold one value per leading row, which that row carries.
    """
    x_bar, y_bar = state.x_bar(), state.y_bar()
    y_star = problem_mod.lower_solve(problem, x_bar)
    g = problem_mod.hypergradient_exact(problem, x_bar, y=y_star)
    phi_star = problem.phi_star()
    lead = x_bar.shape[:-1]
    # Phi(x_bar) and the upper loss at (x_bar, y_bar) from one call.
    phi, upper = problem.mean_f_value(x_bar, np.stack([y_star, y_bar]))
    # A matmul per cell for grad_sq_norm, as g @ g rounds; np.sum(g * g, axis=-1) does not.
    values = dict(grad_sq_norm=problem_mod._dot(g, g), consensus_error=consensus_error(state),
                  phi_gap=math.nan if phi_star is None else phi - phi_star,
                  upper_loss=upper, alpha=alpha)
    for name in ("grad_sq_norm", "consensus_error", "upper_loss"):
        finite = np.isfinite(values[name]).ravel()
        if not finite.all():
            t = np.broadcast_to(state.t, lead).ravel()[finite.argmin()]
            raise MetricsError(f"non-finite probe value for {name} at t={t}")
    return np.stack([np.broadcast_to(values[name], lead) for name in COLUMNS], axis=-1)


@dataclass(frozen=True)
class TransientEstimate:
    cutoff_iteration: int
    matched: bool


def _trailing_median(values: np.ndarray, window: int) -> np.ndarray:
    """Median of probe i's last ``min(i + 1, window)`` values (NaN for window < 1).

    Medians are order statistics: this equals a window-by-window loop bit for bit.
    """
    values = np.asarray(values, dtype=float)
    n, w = len(values), min(window, len(values))
    if w < 1:
        return np.full(n, math.nan)
    # Row i is probe i's window, sorted; +inf pads the first w - 1 rows and sorts last but NaN.
    rows = np.sort(sliding_window_view(np.concatenate([np.full(w - 1, math.inf), values]), w))
    i, k = np.arange(n), np.minimum(np.arange(1, n + 1), w)
    # NumPy's median is the mean of the middle value or pair, a sum that
    # starts from +0.0 (so a -0.0 median reads +0.0); NaN sorts last.
    out = 0.0 + rows[i, (k - 1) // 2]
    pair = k % 2 == 0
    out[pair] = (out[pair] + rows[i[pair], k[pair] // 2]) / 2
    out[np.isnan(rows[:, -1])] = math.nan
    return out


def transient_cutoff(
    decentralized: RunRecord,
    centralized: RunRecord,
    rel_tol: float,
    window: int = 5,
    metric: str = "grad_sq_norm",
    baseline: float = 0.0,
) -> TransientEstimate:
    """First probe after which the decentralized curve tracks the reference.

    Both records must share a probe grid. Curves are smoothed with a
    trailing median over ``window`` >= 1 probes before comparison to
    suppress stochastic crossings. ``rel_tol`` must be >= 0. If the
    decentralized curve never stays within (1 + rel_tol) of the reference,
    ``matched`` is False and the cutoff is the horizon.

    ``baseline`` is subtracted from both curves first; passing the known
    optimal value of a loss metric makes the relative comparison
    scale-free near convergence. The smoothed reference must then be > 0 at
    every probe, or no relative tolerance is meaningful: a MetricsError
    names the metric and the first probe where it is not.
    """
    if not hasattr(window, "__index__") or operator.index(window) < 1:  # floats fail, NaN too
        raise MetricsError(f"window must be an integer >= 1, got {window!r}")
    if not rel_tol >= 0:  # NaN too
        raise MetricsError(f"rel_tol must be >= 0, got {rel_tol}")
    td, tc = decentralized.ts, centralized.ts
    if len(td) != len(tc) or np.any(td != tc):
        raise GridMismatch("probe grids differ between the two records")
    if len(td) == 0:
        raise EmptyInput("records contain no probes")
    dec = _trailing_median(decentralized.column(metric) - baseline, window)
    cen = _trailing_median(centralized.column(metric) - baseline, window)
    low = np.flatnonzero(~(cen > 0))  # NaN too
    if low.size:
        raise MetricsError(f"the smoothed {metric} reference less the baseline {baseline!r} "
                           f"is not > 0 at t={td[low[0]]}")
    ok = dec <= (1.0 + rel_tol) * cen
    # Smallest index from which every later probe satisfies the bound.
    failed = np.flatnonzero(~ok)
    idx = int(failed[-1]) + 1 if failed.size else 0
    matched = idx < len(ok)
    return TransientEstimate(cutoff_iteration=int(td[idx if matched else -1]), matched=matched)


class SummaryTable(_Table):
    """t, then each metric's across-seed mean and standard error, one row per probe."""

    header = SUMMARY_HEADER


def summarize(records: list[RunRecord]) -> SummaryTable:
    """Across-seed mean and standard error of each metric at each probe."""
    if not records:
        raise EmptyInput("no records to summarize")
    ts = records[0].ts
    if any(not np.array_equal(rec.ts, ts) for rec in records[1:]):
        raise GridMismatch("records are not probed on a common grid")
    stacked = np.stack([rec._values[:, : len(PROBE_METRICS)] for rec in records])
    mean, k = stacked.mean(axis=0), len(records)
    stderr = stacked.std(axis=0, ddof=1) / np.sqrt(k) if k > 1 else np.zeros_like(mean)
    # Each metric's mean, then its standard error: SUMMARY_HEADER's order.
    return SummaryTable(ts, np.stack([mean, stderr], axis=-1).reshape(len(ts), -1))
