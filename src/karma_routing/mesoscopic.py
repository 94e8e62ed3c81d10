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
A is stored as its three diagonals (-r2, 0, +p1).  A is column-stochastic
by construction; for p_home < 1, independent of p_home, its stationary
distribution is the long-run karma distribution and the induced route
shares split exactly as r2 : p1, which is what makes conservation prices
optimal.

The stationary distribution is solved on the chain's cycles.  Both moves
shift a cell's index by the same residue mod q = p1 + r2, so B = A_chill +
A_rush carries residue class c onto class c + r2 through a bidiagonal map of
its T+1 levels, and the q classes form g = gcd(p1, r2) cycles of q/g
classes.  The fixed point of each cycle's return map, carried round the
cycle and scaled to mass 1/q per class, is the stationary distribution; one
step of power iteration certifies it.  Mass 1/q per class is the selection
rule where the fixed point is not unique (g > 1: each of the g sublattices
of cells with equal index mod g holds 1/g), and it leaves no periodic
component at p_home = 0.
"""

from __future__ import annotations

import math
import numbers
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
    a_chill: sp.dia_array = field(repr=False)
    a_rush: sp.dia_array = field(repr=False)
    a: sp.dia_array = field(repr=False)

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
    if not isinstance(horizon, numbers.Integral) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
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

    # column j of a diagonal holds the probability of leaving cell j by that
    # move; ascending offsets make A @ v add each row's terms in column
    # order, as a CSR product does
    p_go = 1.0 - p_home
    a = sp.dia_array((np.stack([p_go * chill, np.full(n, p_home), p_go * rush]),
                      [-r2, 0, p1]), shape=(n, n))
    return KarmaChain(
        prices=p, horizon=horizon, p_home=p_home, sensitivity=sensitivity,
        n_states=n, chill_prob=chill, rush_prob=rush,
        a_chill=sp.dia_array((chill[None], [-r2]), shape=(n, n)),
        a_rush=sp.dia_array((rush[None], [p1]), shape=(n, n)), a=a,
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


def _cycle_fixed_point(chain: KarmaChain) -> np.ndarray:
    """Fixed point of B = A_chill + A_rush from its class-cycle return maps.

    Cell i = c + m*q (q = p1 + r2) is level m of residue class c.  Both moves
    send class c to class c + r2 mod q: +r2 to level m + w and -p1 to level
    m + w - 1, where w = 1 iff c + r2 >= q.  So B maps the levels of class c
    onto those of the next class through a bidiagonal step S_c, and the
    classes form g = gcd(p1, r2) cycles of L = q/g steps.  A cycle's return
    map S_{L-1}...S_0 gives its first class's vector; the prefix products
    carry it round the cycle, and each class is scaled to mass 1/q.
    """
    p1, r2 = chain.prices.p1, chain.prices.r2
    q, g = p1 + r2, math.gcd(p1, r2)
    levels = chain.horizon + 1
    classes = (np.arange(g)[:, None] + r2 * np.arange(q // g)) % q  # (g, L)
    climbs = classes + r2 >= q
    chill = chain.chill_prob.reshape(levels, q).T[classes]  # (g, L, levels)
    rush = chain.rush_prob.reshape(levels, q).T[classes]
    # poor cells never pay and wealthy cells never earn, so no mass leaves
    if chill[climbs, -1].any() or rush[~climbs, 0].any():
        raise ValueError("chain moves mass off its lattice of cells")
    # S_c holds chill on its diagonal -w and rush on its diagonal 1 - w
    w = climbs[..., None]
    flat = np.zeros(classes.shape + (levels * levels,))
    flat[..., ::levels + 1] = np.where(w, rush, chill)
    flat[..., levels::levels + 1] = np.where(w, chill, 0.0)[..., :-1]
    flat[..., 1::levels + 1] = np.where(w, 0.0, rush)[..., 1:]
    prefix = flat.reshape(classes.shape + (levels, levels))
    span = 1
    while span < classes.shape[1]:  # Hillis-Steele scan: S_k...S_0 at step k
        prefix[:, span:] = prefix[:, span:] @ prefix[:, :-span]
        span *= 2
    # stationary vector of the return map: (C - I) x = 0 with sum(x) = 1
    system = prefix[:, -1] - np.eye(levels)
    system[:, -1, :] = 1.0
    rhs = np.zeros((g, levels, 1))
    rhs[:, -1] = 1.0
    start = np.linalg.solve(system, rhs)
    by_level = np.empty((levels, q))
    # step k of the cycle carries the start vector to class classes[k + 1]
    by_level[:, np.roll(classes, -1, axis=1)] = (
        (prefix @ start[:, None])[..., 0].transpose(2, 0, 1))
    by_level = np.maximum(by_level, 0.0)
    return (by_level / (q * by_level.sum(axis=0))).ravel()


def stationary_distribution(chain: KarmaChain, tol: float = 1e-12,
                            max_iter: int = 200_000) -> np.ndarray:
    """Fixed point of the dynamics: solved on the class cycles, then polished.

    A = p_home*I + p_go*B, so for p_home < 1 the fixed point is that of B and
    does not depend on p_home; p_home = 1 makes every distribution fixed and
    raises ValueError.  Both moves of B, +r2 and -p1, shift the cell index by
    the same residue mod q = p1 + r2, so B carries each residue class onto
    the next one along g = gcd(p1, r2) cycles; the start vector is the exact
    fixed point of each cycle's return map, carried round the cycle (see
    `_cycle_fixed_point`).  Power iteration from it then certifies the
    result: it stops once one step changes the distribution by at most `tol`
    in L1, and a chain that does not settle in `max_iter` steps raises
    ConvergenceError and is never returned half-converged.

    Selection rule: every residue class holds mass 1/q, so each of the g
    sublattices of cells with equal index mod g (which never exchange mass)
    holds 1/g.  This is the limit of power iteration from uniform, and at
    p_home = 0, where the chain can be periodic, it has no periodic
    component.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    if chain.p_home >= 1.0:
        raise ValueError(
            f"p_home must be < 1 for a stationary distribution, got "
            f"{chain.p_home}: A = I makes every distribution stationary")
    dist = _cycle_fixed_point(chain)
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

    Independent oracle for `stationary_distribution` in tests, at any
    p_home.  The solve is unique only where the fixed point is (co-prime
    prices, p_home < 1).  Intended for moderate sizes (a few hundred cells).
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
