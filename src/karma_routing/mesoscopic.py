"""Quantized karma-distribution dynamics of a population playing the
closed-form best response.

With integer prices, an agent's karma deviation from its reference moves on
the integer lattice; under the d1 < d2 decision rule the reachable deviations
span N = (T+1)*(p1+r2) cells, indexed 0-based as

    i = (k - k_ref) + T*r2,      i in [0, N).

The chain is the agent rule of `agent` laid onto that lattice: on the
reference level k_ref = T*r2, cell i holds karma i, so the band edges are
the breakpoints `thresholds(T*r2, p, T)` and the per-cell probabilities come
from `urgency_threshold`:

    poor     [0, k_poor)            always slow
    ok       [k_poor, k_rich)       slow iff s <= s_bar
    rich     [k_rich, k_wealthy)    slow iff s <= decaying threshold
    wealthy  [k_wealthy, N)         always fast

with widths p1, (T-1)*(p1+r2), p1+r2 and r2.

The population-share vector P over cells evolves as P+ = A P with
A = p_home*I + p_go*(A_chill + A_rush), where A_chill moves mass up by r2
(slow route, reward) and A_rush moves it down by p1 (fast route, toll).
A is column-stochastic by construction; for p_home > 0 its stationary
distribution is the long-run karma distribution and the induced route shares
split exactly as r2 : p1, which is what makes conservation prices optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .agent import Thresholds, thresholds, urgency_threshold
from .errors import ConvergenceError
from .pricing import PriceVector
from .sensitivity import SensitivitySpec


@dataclass(frozen=True)
class KarmaChain:
    """Transition structure of the quantized karma dynamics."""

    prices: PriceVector
    horizon: int
    p_home: float
    sensitivity: SensitivitySpec
    n_states: int
    chill_prob: np.ndarray = field(repr=False)  # P(slow | travel, state j)
    rush_prob: np.ndarray = field(repr=False)   # P(fast | travel, state j)
    a_chill: sp.csr_array = field(repr=False)
    a_rush: sp.csr_array = field(repr=False)
    a: sp.csr_array = field(repr=False)

    @property
    def p_go(self) -> float:
        return 1.0 - self.p_home

    def band_slices(self) -> dict[str, slice]:
        """0-based cell ranges of the poor/ok/rich/wealthy bands."""
        th = _lattice_thresholds(self.prices, self.horizon)
        edges = [int(e) for e in (0, th.k_poor, th.k_rich, th.k_wealthy,
                                  self.n_states)]
        return {band: slice(lo, hi) for band, lo, hi in
                zip(("poor", "ok", "rich", "wealthy"), edges, edges[1:])}

    def deviation_of_cell(self, i) -> np.ndarray:
        """Karma deviation k - k_ref at the left edge of 0-based cell i."""
        return np.asarray(i) - self.horizon * self.prices.r2


def _lattice_thresholds(p: PriceVector, horizon: int) -> Thresholds:
    """Breakpoints on the reference level k_ref = T*r2, where cell i holds karma i."""
    return thresholds(horizon * p.r2, p, horizon)


def karma_cell(k, k_ref, p: PriceVector, horizon: int) -> np.ndarray:
    """0-based cell index of karma deviations (floor to the cell's left edge)."""
    dev = np.floor(np.asarray(k, dtype=float) - np.asarray(k_ref, dtype=float))
    return (dev + horizon * p.r2).astype(int)


def build_chain(p: PriceVector, horizon: int, p_home: float,
                sensitivity: SensitivitySpec) -> KarmaChain:
    """Assemble the transition matrices for given prices and horizon.

    Requires the canonical orientation r2 >= p1 (the fast route is the one
    that is tolled less than the slow route rewards); the opposite case is
    recovered by relabeling the routes.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 <= p_home <= 1.0:
        raise ValueError("p_home must lie in [0, 1]")
    if p.r2 < p.p1:
        raise ValueError(
            f"chain requires the canonical orientation r2 >= p1, got ({p.p1}, {p.r2})"
        )
    p1, r2 = p.p1, p.r2
    n = (horizon + 1) * p.total

    # P(slow | travel) per cell: the agent rule at karma i, which cell i holds
    th = _lattice_thresholds(p, horizon)
    cell = np.arange(n)
    chill = sensitivity.cdf(urgency_threshold(cell, th, sensitivity.s_bar, p))
    chill[cell < th.k_poor] = 1.0      # poor cells cannot pay the toll
    chill[cell >= th.k_wealthy] = 0.0  # wealthy cells always go fast
    rush = 1.0 - chill

    up = chill > 0.0
    a_chill = sp.csr_array(
        (chill[up], (cell[up] + r2, cell[up])), shape=(n, n)
    )
    down = rush > 0.0
    a_rush = sp.csr_array(
        (rush[down], (cell[down] - p1, cell[down])), shape=(n, n)
    )
    a = (p_home * sp.eye_array(n, format="csr")
         + (1.0 - p_home) * (a_chill + a_rush))
    return KarmaChain(
        prices=p, horizon=horizon, p_home=p_home, sensitivity=sensitivity,
        n_states=n, chill_prob=chill, rush_prob=rush,
        a_chill=a_chill, a_rush=a_rush, a=sp.csr_array(a),
    )


def _check_distribution(chain: KarmaChain, dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (chain.n_states,):
        raise ValueError(f"distribution must have length {chain.n_states}")
    if np.any(dist < -1e-12):
        raise ValueError("distribution has negative mass")
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError("distribution must sum to 1")
    return dist


def step_distribution(chain: KarmaChain, dist) -> np.ndarray:
    """One day of population dynamics: returns A @ dist."""
    return chain.a @ _check_distribution(chain, dist)


def stationary_distribution(chain: KarmaChain, tol: float = 1e-12,
                            max_iter: int = 200_000) -> np.ndarray:
    """Fixed point of the dynamics by power iteration from uniform.

    Requires p_home > 0 (the chain is then primitive and the fixed point is
    the unique global attractor).  At p_home = 0 the dynamics can cycle;
    analyze that case with trajectory stepping or the dense solver instead.
    """
    if chain.p_home <= 0.0:
        raise ValueError(
            "stationary analysis needs p_home > 0; at p_home = 0 the chain can "
            "be periodic -- use step_distribution trajectories or "
            "stationary_distribution_dense"
        )
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    dist = np.full(chain.n_states, 1.0 / chain.n_states)
    a = chain.a
    for _ in range(max_iter):
        nxt = a @ dist
        if np.abs(nxt - dist).sum() <= tol:
            return nxt
        dist = nxt
    raise ConvergenceError(
        f"power iteration did not reach residual {tol} in {max_iter} steps"
    )


def stationary_distribution_dense(chain: KarmaChain) -> np.ndarray:
    """Stationary distribution via a dense least-squares solve of (A - I)P = 0.

    Cross-check for the power iteration; also covers p_home = 0, where the
    chain may be periodic but (for co-prime prices) still has a unique
    stationary distribution.  Intended for moderate sizes (a few hundred
    cells).
    """
    n = chain.n_states
    m = np.vstack([chain.a.toarray() - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    dist, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    dist = np.maximum(dist, 0.0)
    return dist / dist.sum()


def equilibrium_flows(chain: KarmaChain, dist) -> np.ndarray:
    """Population route shares induced by a karma distribution.

    x1 = p_go * 1^T A_rush P (fast), x2 = p_go * 1^T A_chill P (slow);
    the pair sums to p_go.
    """
    dist = _check_distribution(chain, dist)
    x1 = chain.p_go * float((chain.a_rush @ dist).sum())
    x2 = chain.p_go * float((chain.a_chill @ dist).sum())
    return np.array([x1, x2])


def quantize_population(k, k_ref, p: PriceVector,
                        horizon: int) -> tuple[np.ndarray, int]:
    """Normalized histogram of karma deviations over the chain's cells.

    Agents whose deviation falls outside the chain's invariant range are
    clamped to the nearest boundary cell; the count of clamped agents is
    returned alongside the distribution.
    """
    n = (horizon + 1) * p.total
    idx = karma_cell(k, k_ref, p, horizon)
    clamped = int(np.count_nonzero((idx < 0) | (idx >= n)))
    idx = np.clip(idx, 0, n - 1)
    hist = np.bincount(idx, minlength=n).astype(float)
    return hist / hist.sum(), clamped


def save_matrix_coo(chain: KarmaChain, path) -> None:
    """Write A as 'row column value' lines (1-based indices)."""
    coo = sp.coo_array(chain.a)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def save_distribution_csv(chain: KarmaChain, dist, path) -> None:
    """Write a cell distribution as 'index,deviation,probability' CSV."""
    dist = _check_distribution(chain, dist)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,karma_deviation,probability\n")
        for i, prob in enumerate(dist):
            fh.write(f"{i + 1},{int(chain.deviation_of_cell(i))},{float(prob)!r}\n")
