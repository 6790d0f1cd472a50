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

# The metric columns of a probe, in CSV order; each can be a run's transient metric.
PROBE_METRICS = ("grad_sq_norm", "phi_gap", "consensus_error", "upper_loss")
CSV_HEADER = ["t", *PROBE_METRICS, "alpha"]


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
        # The shortest repr of each float needs no quoting.
        rows = [",".join(CSV_HEADER) + "\n"]
        for p in self.probes:
            rows.append(
                f"{p.t},{float(p.grad_sq_norm)!r},{float(p.phi_gap)!r},"
                f"{float(p.consensus_error)!r},{float(p.upper_loss)!r},{float(p.alpha)!r}\n"
            )
        return "".join(rows)

    @staticmethod
    def from_csv(text: str) -> "RunRecord":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != CSV_HEADER:
            raise MetricsError(f"unexpected CSV header: {header}")
        rec = RunRecord()
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise MetricsError(f"line {line}: {len(row)} cells, expected {len(CSV_HEADER)}")
            try:
                # Columns in CSV_HEADER order, which is ProbeRow's field order.
                probe_row = ProbeRow(int(row[0]), *map(float, row[1:]))
            except ValueError as exc:
                raise MetricsError(f"line {line}: {exc}") from exc
            rec.add_probe(probe_row)
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
    # Phi(x_bar) and the upper loss at (x_bar, y_bar) from one call.
    phi, upper = problem.mean_f_value(x_bar, np.stack([y_star, y_bar]))
    gap = np.full(lead, math.nan) if phi_star is None else phi - phi_star
    consensus = np.asarray(consensus_error(state))
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
    m = min(window - 1, len(values))
    if m > 0:
        # Row i of the sorted prefixes holds the first i + 1 values, then +inf.
        prefixes = np.sort(np.where(np.tri(m, dtype=bool), values[:m], math.inf), axis=1)
        i = np.arange(m)
        # np.median takes the mean of the middle value or pair, and that
        # sum starts from +0.0 (so a -0.0 median reads +0.0).
        head = 0.0 + prefixes[i, i // 2]
        pair = i % 2 == 1
        head[pair] = (head[pair] + prefixes[i[pair], i[pair] // 2 + 1]) / 2
        head[np.logical_or.accumulate(np.isnan(values[:m]))] = math.nan
        out[:m] = head
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
    failed = np.flatnonzero(~ok)
    idx = int(failed[-1]) + 1 if failed.size else 0
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

    def to_csv(self) -> str:
        """t, then each metric's mean and standard error, one row per probe."""
        header = ["t"]
        columns = [self.ts.tolist()]
        for name in SUMMARY_METRICS:
            header += [f"{name}_mean", f"{name}_stderr"]
            columns += [self.mean[name].tolist(), self.stderr[name].tolist()]
        rows = [",".join(header) + "\n"]
        for t, *values in zip(*columns):
            rows.append(f"{int(t)},{','.join(map(repr, values))}\n")
        return "".join(rows)


SUMMARY_METRICS = PROBE_METRICS


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
