"""Run metrics: hypergradient norm, consensus error, transient cutoffs.

Metrics are evaluated at the row-mean (network-average) iterate, for every
cell of a (K, n, .) state in one batched probe. The transient cutoff
compares a decentralized run against a centralized reference on a shared
probe grid: it is the first probe from which the smoothed decentralized
curve stays within a relative tolerance of the smoothed centralized one for
the rest of the horizon.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import problem as problem_mod

CSV_HEADER = ["t", "grad_sq_norm", "phi_gap", "consensus_error", "upper_loss", "alpha"]


class MetricsError(ValueError):
    pass


class GridMismatch(MetricsError):
    pass


class EmptyInput(MetricsError):
    pass


@dataclass(frozen=True)
class ProbeRow:
    t: int
    grad_sq_norm: float
    phi_gap: float  # nan when Phi* is unknown
    consensus_error: float
    upper_loss: float
    alpha: float


@dataclass
class RunRecord:
    metadata: dict
    probes: list[ProbeRow] = field(default_factory=list)

    def add_probe(self, row: ProbeRow) -> None:
        if self.probes and row.t <= self.probes[-1].t:
            raise MetricsError("probe iterations must be strictly increasing")
        self.probes.append(row)

    @property
    def ts(self) -> np.ndarray:
        return np.array([p.t for p in self.probes], dtype=int)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(p, name) for p in self.probes], dtype=float)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for p in self.probes:
            values = (p.grad_sq_norm, p.phi_gap, p.consensus_error, p.upper_loss, p.alpha)
            w.writerow([p.t] + [repr(float(v)) for v in values])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str, metadata: dict | None = None) -> "RunRecord":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != CSV_HEADER:
            raise MetricsError(f"unexpected CSV header: {header}")
        rec = RunRecord(metadata=metadata or {})
        for row in reader:
            if not row:
                continue
            # Columns in CSV_HEADER order, which is ProbeRow's field order.
            rec.add_probe(ProbeRow(int(row[0]), *map(float, row[1:6])))
        return rec


def consensus_error(state):
    """Mean squared deviation of (x_i, y_i, z_i) from their network means, per cell."""
    total = 0.0
    for M in (state.X, state.Y, state.Z):
        dev = (M - M.mean(axis=-2, keepdims=True)) ** 2
        # Summed flat, as np.sum sums an (n, .) array, so each cell rounds alike.
        total = total + dev.reshape(dev.shape[:-2] + (-1,)).sum(axis=-1)
    return total / state.X.shape[-2]


def probe(problem, state, alpha: float | np.ndarray):
    """Metrics at each cell's row-mean iterate: a ProbeRow, or a list for a (K, n, .) state.

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
    if phi_star is None:
        gap = np.full(lead, math.nan)
    else:
        gap = np.asarray(problem.mean_f_value(x_bar, y_star) - phi_star)
    consensus = np.asarray(consensus_error(state))
    upper = np.asarray(problem.mean_f_value(x_bar, y_bar))
    # A matmul per cell, as g @ g rounds; np.sum(g * g, axis=-1) rounds differently.
    grad_sq = problem_mod._dot(g, g)
    ts = np.broadcast_to(state.t, lead).ravel().tolist()
    for name, v in (("grad_sq_norm", grad_sq), ("consensus_error", consensus),
                    ("upper_loss", upper)):
        finite = np.isfinite(v).ravel()
        if not finite.all():
            raise MetricsError(f"non-finite probe value for {name} at t={ts[finite.argmin()]}")
    columns = np.stack([grad_sq, gap, consensus, upper], axis=-1).reshape(-1, 4)
    alphas = np.broadcast_to(alpha, lead).ravel().tolist()
    rows = [ProbeRow(t, *values, a) for t, values, a in zip(ts, columns.tolist(), alphas)]
    return rows if lead else rows[0]


@dataclass(frozen=True)
class TransientEstimate:
    cutoff_iteration: int
    rel_tol: float
    window: int
    matched: bool


def _trailing_median(values: np.ndarray, window: int) -> np.ndarray:
    """Median of each value and up to ``window - 1`` before it (NaN for window < 1).

    Medians are order statistics: this equals a window-by-window loop bit for bit.
    """
    values = np.asarray(values, dtype=float)
    out = np.full(len(values), math.nan)
    for i in range(min(window - 1, len(values))):
        out[i] = np.median(values[: i + 1])
    if 0 < window <= len(values):
        out[window - 1 :] = np.median(sliding_window_view(values, window), axis=-1)
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
    scale-free near convergence.
    """
    if window < 1:
        raise MetricsError(f"window must be >= 1, got {window}")
    if not rel_tol >= 0:  # NaN too
        raise MetricsError(f"rel_tol must be >= 0, got {rel_tol}")
    td, tc = decentralized.ts, centralized.ts
    if len(td) != len(tc) or np.any(td != tc):
        raise GridMismatch("probe grids differ between the two records")
    if len(td) == 0:
        raise EmptyInput("records contain no probes")
    dec = _trailing_median(decentralized.column(metric) - baseline, window)
    cen = _trailing_median(centralized.column(metric) - baseline, window)
    ok = dec <= (1.0 + rel_tol) * cen
    # Smallest index from which every later probe satisfies the bound.
    idx = len(ok)
    for i in range(len(ok) - 1, -1, -1):
        if ok[i]:
            idx = i
        else:
            break
    if idx == len(ok):
        return TransientEstimate(
            cutoff_iteration=int(td[-1]), rel_tol=rel_tol, window=window, matched=False
        )
    return TransientEstimate(
        cutoff_iteration=int(td[idx]), rel_tol=rel_tol, window=window, matched=True
    )


@dataclass
class SummaryTable:
    ts: np.ndarray
    mean: dict[str, np.ndarray]
    stderr: dict[str, np.ndarray]
    n_records: int


SUMMARY_METRICS = ["grad_sq_norm", "phi_gap", "consensus_error", "upper_loss"]


def summarize(records: list[RunRecord]) -> SummaryTable:
    """Across-seed mean and standard error of each metric at each probe."""
    if not records:
        raise EmptyInput("no records to summarize")
    ts = records[0].ts
    for rec in records[1:]:
        if len(rec.ts) != len(ts) or np.any(rec.ts != ts):
            raise GridMismatch("records are not probed on a common grid")
    k = len(records)
    mean, stderr = {}, {}
    for name in SUMMARY_METRICS:
        stacked = np.stack([rec.column(name) for rec in records])
        mean[name] = stacked.mean(axis=0)
        if k > 1:
            stderr[name] = stacked.std(axis=0, ddof=1) / np.sqrt(k)
        else:
            stderr[name] = np.zeros(len(ts))
    return SummaryTable(ts=ts, mean=mean, stderr=stderr, n_records=k)
