"""Quantized karma-distribution dynamics of a population playing the
closed-form best response.

With integer prices, an agent's karma deviation from its reference moves on
the integer lattice; under the d1 < d2 decision rule the reachable deviations
span N = (T+1)*(p1+r2) cells, indexed 0-based as

    i = (k - k_ref) + T*r2,      i in [0, N).

The chain is the agent rule of `agent` laid onto that lattice: on the
reference level k_ref = T*r2, cell i holds karma i, so the band edges are
the rule's breakpoints on that level.  There they are integers: `agent`'s
`k_rich` and `k_wealthy` at k_ref = T*r2, and k_poor = p1, because
max(p1, k_ref + p1 - T*r2) = p1 on that level.  A traveler in cell i takes
the fast route iff its sensitivity s exceeds the cell's threshold theta_i
(`KarmaChain.theta`), so its probability of the slow route is F(theta_i),
with F the sensitivity CDF in units of the mean:

    poor     [0, k_poor)            theta = +inf (always slow)
    ok       [k_poor, k_rich)       theta = 1
    rich     [k_rich, k_wealthy)    theta = (k_wealthy - i) / (p1 + r2)
    wealthy  [k_wealthy, N)         theta = -inf (always fast)

with widths p1, (T-1)*(p1+r2), p1+r2 and r2.

The population-share vector P over cells evolves as P+ = A P with
A = p_home*I + p_go*B, where B moves the slow share of cell j up by r2
(reward) and the fast share down by p1 (toll).  A is stored as its three
diagonals (-r2, 0, +p1), the chain's only matrix.  A is column-stochastic
by construction.  `build_chain` takes p_home in [0, 1) only, so someone
travels; the stationary distribution then does not depend on p_home, it is
the long-run karma distribution, and the induced route shares split
exactly as r2 : p1, which is what makes conservation prices optimal.

The stationary distribution is solved on the chain's cycles.  Both moves
shift a cell's index by the same residue mod q = p1 + r2, so B carries
residue class c onto class c + r2 through a bidiagonal map of its T+1
levels, and the q classes form g = gcd(p1, r2) cycles of L = q/g
classes.  For p1 = r2 (L = 2, as conserving prices are for a symmetric
optimum) each cycle is a birth-death chain on 2(T+1) cells, and detailed
balance gives its fixed point as a cumulative product of chill/rush
ratios.  Otherwise a pairwise product tree over each cycle's L maps gives
its return map in L - 1 products; the return map's fixed point is the
first class's vector, and walking back down the tree hands every class its
vector in L - 1 matrix-vector products.  Each class is scaled to mass 1/q,
and one step of A certifies the result.  Mass 1/q per class is the
selection rule where the fixed point is not unique (g > 1: each of the g
sublattices of cells with equal index mod g holds 1/g), and it leaves no
periodic component at p_home = 0.

A few calls fix the bits of the stationary distribution and the flows: the
product tree's batched `np.matmul` and `np.linalg.solve` (for p1 = r2, the
closed form's `log`, `cumsum` and `exp`), the column sums that scale each
class, and the flows' two dot products.  The rest is written for few numpy
calls, and tests/test_chain_stages.py pins it bit for bit against the
plain expressions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .agent import _decaying_threshold, k_rich, k_wealthy
from .errors import ConvergenceError
from .network import check_count, check_p_home
from .pricing import PriceVector
from .sensitivity import SensitivitySpec


# L1 bound on the one chain step that certifies a stationary distribution;
# the step moves the class-cycle fixed point by about 1e-16
CERTIFY_TOL = 1e-12
_LEAK = "chain moves mass off its lattice of cells"


@dataclass(frozen=True)
class DiagonalMatrix:
    """Square matrix held as its diagonals, in the DIA layout: data[k, j] is
    the entry in column j, row j - offsets[k]; an entry whose row falls off
    the matrix is ignored."""

    data: np.ndarray  # (len(offsets), n)
    offsets: tuple[int, ...]
    # (k, columns, rows) of diagonal k's in-range entries, sliced once
    _spans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.data.shape[1]
        spans = []
        for k, offset in enumerate(self.offsets):
            lo, width = max(offset, 0), max(n - abs(offset), 0)
            spans.append((k, slice(lo, lo + width),
                          slice(lo - offset, lo - offset + width)))
        object.__setattr__(self, "_spans", tuple(spans))

    def __matmul__(self, v) -> np.ndarray:
        # column j of every diagonal multiplies v[j], so one product serves
        # them all; each row adds its terms diagonal by diagonal, from zero
        terms = self.data * v
        out = np.zeros(terms.shape[1])
        for k, cols, rows in self._spans:
            out[rows] += terms[k, cols]
        return out

    def sum(self, axis: int = 0) -> np.ndarray:
        """Column sums; no other axis is supported."""
        if axis != 0:
            raise ValueError("DiagonalMatrix sums its columns only (axis=0)")
        out = np.zeros(self.data.shape[1])
        for k, cols, _ in self._spans:
            out[cols] += self.data[k, cols]
        return out


@dataclass(frozen=True)
class KarmaChain:
    """Transition structure of the quantized karma dynamics; `a` is A as a
    `DiagonalMatrix` on its diagonals (-r2, 0, +p1)."""

    prices: PriceVector
    horizon: int
    p_home: float
    sensitivity: SensitivitySpec
    chill_prob: np.ndarray = field(repr=False)  # P(slow | travel, state j)
    a: DiagonalMatrix = field(repr=False)

    @property
    def p_go(self) -> float:
        return 1.0 - self.p_home

    @property
    def n_states(self) -> int:
        return (self.horizon + 1) * self.prices.total

    @property
    def theta(self) -> np.ndarray:
        """Per-cell urgency threshold: a traveler in cell i goes fast iff
        s > theta[i] (s in units of its mean), so chill_prob is the
        sensitivity CDF at theta."""
        return _cell_thresholds(self.prices, self.horizon)

    def deviation_of_cell(self, i) -> np.ndarray:
        """Karma deviation k - k_ref at the left edge of 0-based cell i."""
        return np.asarray(i) - self.horizon * self.prices.r2


def _band_edges(p: PriceVector, horizon: int) -> list[int]:
    """The band edges [0, k_poor, k_rich, k_wealthy, N]: the rule's
    breakpoints on the reference level k_ref = T*r2, where cell i holds
    karma i.

    The edges are Python ints: k_rich and k_wealthy from `agent` at that
    level, and k_poor = max(p1, k_ref + p1 - T*r2) = p1, the value
    `agent.k_poor` gives there.
    """
    ref = horizon * p.r2
    return [0, p.p1, int(k_rich(ref, p, horizon)),
            int(k_wealthy(ref, p, horizon)), (horizon + 1) * p.total]


def _cell_thresholds(p: PriceVector, horizon: int) -> np.ndarray:
    """The rule's threshold theta at each cell's karma, band by band."""
    _, ok, rich, wealthy, n = _band_edges(p, horizon)
    theta = np.empty(n)
    theta[:ok] = np.inf         # poor cells cannot pay the toll
    theta[ok:rich] = 1.0
    theta[rich:wealthy] = _decaying_threshold(
        np.arange(rich, wealthy, dtype=float), wealthy, p)
    theta[wealthy:] = -np.inf   # wealthy cells always go fast
    return theta


def build_chain(p: PriceVector, horizon: int, p_home: float,
                sensitivity: SensitivitySpec) -> KarmaChain:
    """Assemble the transition matrix A for given prices and horizon.

    A is a `DiagonalMatrix` holding the slow move, the stay and the fast
    move on its diagonals -r2, 0 and +p1, written into one (3, N) block.
    Any integer price pair works, p1 > r2 included.  Requires p_home in
    [0, 1) and an integer horizon >= 1.
    """
    check_p_home(p_home)
    check_count("horizon", horizon)
    # P(slow | travel) per cell: the agent rule at karma i, which cell i holds
    chill = sensitivity.cdf(_cell_thresholds(p, horizon))

    # column j of a diagonal holds the probability of leaving cell j by that
    # move; ascending offsets make A @ v add each row's terms in column
    # order, as a CSR product does
    p_go = 1.0 - p_home
    data = np.empty((3, chill.size))
    np.multiply(p_go, chill, out=data[0])
    data[1] = p_home
    np.subtract(1.0, chill, out=data[2])
    data[2] *= p_go
    a = DiagonalMatrix(data, (-p.r2, 0, p.p1))
    return KarmaChain(prices=p, horizon=horizon, p_home=p_home,
                      sensitivity=sensitivity, chill_prob=chill, a=a)


def _check_distribution(chain: KarmaChain, dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (chain.n_states,):
        raise ValueError(f"distribution must have length {chain.n_states}")
    # written so that NaN fails both checks: min and sum return NaN
    if not dist.min() >= -1e-12:
        raise ValueError("distribution has negative or NaN mass")
    if not abs(dist.sum() - 1.0) <= 1e-9:
        raise ValueError("distribution must sum to 1")
    return dist


def step_distribution(chain: KarmaChain, dist) -> np.ndarray:
    """One day of population dynamics: returns A @ dist."""
    return chain.a @ _check_distribution(chain, dist)


def _cycle_fixed_point(chain: KarmaChain) -> np.ndarray:
    """Fixed point of B, the travel part of A, from its class cycles.

    Cell i = c + m*q (q = p1 + r2) is level m of residue class c.  Both moves
    send class c to class c + r2 mod q: +r2 to level m + w and -p1 to level
    m + w - 1, where w = 1 iff c + r2 >= q.  So B maps the levels of class c
    onto those of the next class through a bidiagonal step S_c, and the
    classes form g = gcd(p1, r2) cycles of L = q/g steps S_0, ..., S_{L-1}.

    p1 = r2 = p (L = 2): each of the g = p cycles holds the cells i = c
    mod p and is a birth-death chain on those 2(T+1) cells, up by p with
    `chill` and down by p with `rush`.  Detailed balance gives its fixed
    point in closed form, pi_{j+1} / pi_j = chill_j / rush_{j+1}: a
    cumulative product down the (2(T+1), p) grid of cells, taken as a
    cumulative sum of logs so that it cannot overflow.  A row j + 1 > 0
    with rush 0 (a poor edge above p1, as for an agent with k_ref < T*r2)
    sends no mass down, so the rows below it hold none.

    Otherwise the return map S_{L-1}...S_0 is the top of a pairwise product
    tree (`_product_tree_levels`), whose fixed point is the start vector of
    the cycle's first class.

    Either way each class is scaled to mass 1/q.  A chain that would move
    mass off its lattice (one of the top r2 cells that could still earn, or
    of the bottom p1 cells that could still pay) raises ValueError before
    either path.
    """
    p1, r2 = chain.prices.p1, chain.prices.r2
    q = p1 + r2
    levels = chain.horizon + 1
    chill = chain.chill_prob
    # poor cells never pay and wealthy cells never earn, so no mass leaves;
    # NaN counts as nonzero and differs from 1
    if np.count_nonzero(chill[-r2:]) or np.count_nonzero(chill[:p1] != 1.0):
        raise ValueError(_LEAK)
    if p1 == r2:
        chill = chill.reshape(2 * levels, p1)
        rush = 1.0 - chill[1:]  # of the rows above the first
        # in logs, since the product grows like (chill/rush)^(2T) and would
        # overflow for long horizons; a chill of 0 gives a log of -inf and
        # zero mass above it
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.log(chill[:-1] / rush)
        # rows above the first with rush 0 (see above): their steps are
        # zeroed, and the rows below the last of them emptied
        has_stuck = np.count_nonzero(rush) < rush.size
        if has_stuck:
            stuck = rush == 0.0
            steps[stuck] = 0.0
        grid = np.zeros(chill.shape)
        steps.cumsum(axis=0, out=grid[1:])
        if has_stuck:
            grid[:-1][np.logical_or.accumulate(stuck[::-1])[::-1]] = -np.inf
        grid -= grid.max(axis=0)
        by_level = np.exp(grid, out=grid).reshape(levels, q)
    else:
        by_level = _product_tree_levels(chain)
    by_level /= q * by_level.sum(axis=0)
    return by_level.ravel()


def _product_tree_levels(chain: KarmaChain) -> np.ndarray:
    """Unscaled fixed point of B as a (T+1, q) grid, by class-cycle products.

    Each level of the tree multiplies adjacent pairs of steps, and an odd
    level carries its last node up unchanged, so a cycle costs L - 1
    products in ceil(log2 L) batched calls.  The top is the cycle's return
    map, and its stationary vector is the start vector of the first class.
    Walking down, a left child starts where its parent does and a right
    child where its left sibling's product takes that vector, so the bottom
    holds the start vector of every class after L - 1 matrix-vector
    products.

    The bits of the result are fixed by the batched `np.matmul` calls on
    C-contiguous (T+1, T+1) nodes and the `np.linalg.solve`; the caller's
    column sums scale it.  The rest is written for few numpy calls and
    pinned bit for bit by tests/test_chain_stages.py: the tree lives in one
    buffer, level after level; the steps are written in class order, where
    slices (classes below p1 stay, the others climb) replace masks, into
    rows that the upper levels use later, and taken into cycle order; and
    node j of tree level l starts at class j * 2**l, so the start vectors
    share one stack in which a left child's row is its parent's.
    """
    p1, r2 = chain.prices.p1, chain.prices.r2
    q, g = p1 + r2, math.gcd(p1, r2)
    cycle = q // g
    levels = chain.horizon + 1
    # step j of cycle c is class (c + j*r2) mod q, which climbs iff >= p1
    classes = (np.arange(0, cycle * r2, r2)[:, None] + np.arange(g)) % q
    sizes = [cycle]  # nodes per tree level, bottom first
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    bases = [0, *itertools.accumulate(sizes)]
    # one node more than the tree, so that rows [L, 2L) always exist
    nodes = np.empty((bases[-1] + 1, g, levels, levels))
    # S_c holds chill on its diagonal -w and rush on its diagonal 1 - w;
    # written in class order where the upper levels will go, then taken
    # into cycle order as the bottom level
    steps = nodes[cycle:2 * cycle].reshape(q, levels * levels)
    steps.fill(0.0)
    chill = chain.chill_prob.reshape(levels, q).T  # (q, T+1)
    rush = 1.0 - chill
    steps[:p1, ::levels + 1] = chill[:p1]         # w = 0 below class p1
    steps[:p1, 1::levels + 1] = rush[:p1, 1:]
    steps[p1:, ::levels + 1] = rush[p1:]          # w = 1 from class p1 on
    steps[p1:, levels::levels + 1] = chill[p1:, :-1]
    # every index is in range; the default mode would copy `out` first
    np.take(steps, classes, axis=0, mode="wrap",
            out=nodes[:cycle].reshape(cycle, g, levels * levels))
    # up-sweep: each node is the product of the steps it spans, last first
    for n, lo, hi in zip(sizes[:-1], bases, bases[1:]):
        np.matmul(nodes[lo + 1:hi:2], nodes[lo:hi - 1:2],
                  out=nodes[hi:hi + n // 2])
        if n % 2:
            nodes[hi + n // 2] = nodes[hi - 1]
    # stationary vector of the return map: (C - I) x = 0 with sum(x) = 1,
    # set up in place of the top, which the down-sweep does not read
    system = nodes[bases[-1] - 1]
    system.reshape(g, levels * levels)[:, ::levels + 1] -= 1.0
    system[:, -1, :] = 1.0
    rhs = np.zeros((g, levels, 1))
    rhs[:, -1] = 1.0
    start = np.empty((cycle, g, levels, 1))
    start[0] = np.linalg.solve(system, rhs)
    # down-sweep: a right child's row of `start` is its left sibling's
    # product with its parent's row
    for level in range(len(sizes) - 2, -1, -1):
        n, lo, span = sizes[level], bases[level], 1 << level
        np.matmul(nodes[lo:lo + n - 1:2], start[:(n - 1) * span:2 * span],
                  out=start[span::2 * span])
    by_level = np.empty((levels, q))
    by_level[:, classes] = start[..., 0].transpose(2, 0, 1)
    return np.maximum(by_level, 0.0, out=by_level)


def stationary_distribution(chain: KarmaChain) -> np.ndarray:
    """Fixed point of the dynamics: solved on the class cycles, then certified.

    A = p_home*I + p_go*B with p_go > 0 (`build_chain`), so the fixed point
    is that of B and does not depend on p_home.  Both moves of B, +r2 and
    -p1, shift the cell index by the same residue mod q = p1 + r2, so B
    carries each residue class onto the next one along g = gcd(p1, r2)
    cycles (see `_cycle_fixed_point`).
    For p1 = r2 each cycle is a birth-death chain and the start vector is
    its detailed-balance product; otherwise it is the exact fixed point of
    each cycle's return map, handed to every class of the cycle by a
    pairwise product tree.  One step of A certifies it: A @ start is
    returned when it differs from the start by at most CERTIFY_TOL in L1
    (the presets' residuals are about 1e-16), and otherwise (also when the
    step gives NaN) ConvergenceError names the residual.

    Selection rule: every residue class holds mass 1/q, so each of the g
    sublattices of cells with equal index mod g (which never exchange mass)
    holds 1/g.  This is the limit of power iteration from uniform, and at
    p_home = 0, where the chain can be periodic, it has no periodic
    component.
    """
    start = _cycle_fixed_point(chain)
    dist = chain.a @ start
    residual = float(np.abs(dist - start).sum())
    if not residual <= CERTIFY_TOL:  # written so that NaN fails
        raise ConvergenceError(
            f"fixed point not certified: one step moves it by {residual} "
            f"in L1, above {CERTIFY_TOL}")
    return dist


def equilibrium_flows(chain: KarmaChain, dist) -> np.ndarray:
    """Population route shares induced by a karma distribution.

    x1 = p_go * (1 - chill_prob) . P (fast), x2 = p_go * chill_prob . P
    (slow); the pair sums to p_go.  No move leaves the lattice of cells, so
    these are the masses that A's off-diagonals carry.
    """
    dist = _check_distribution(chain, dist)
    chill, p_go = chain.chill_prob, chain.p_go
    return np.array([p_go * float((1.0 - chill) @ dist),
                     p_go * float(chill @ dist)])


def quantize_population(k, k_ref, p: PriceVector,
                        horizon: int) -> tuple[np.ndarray, int]:
    """Normalized histogram of karma deviations over the chain's cells.

    Agents whose deviation falls outside the chain's invariant range are
    clamped to the nearest boundary cell, +inf and -inf among them; the
    count of clamped agents is returned alongside the distribution.  The
    count comes with the histogram: the floored deviations are clamped one
    cell beyond either end of the chain, into two sentinel cells, and
    counted over N + 2 cells; the sentinels' counts are the clamped agents,
    which are then folded into the end cells.  A NaN deviation raises
    ValueError naming the first such agent; so do a horizon that is not an
    integer >= 1, an empty population, and k and k_ref of different shapes.
    """
    check_count("horizon", horizon)
    if np.shape(k) != np.shape(k_ref):
        raise ValueError(f"k has shape {np.shape(k)} but k_ref has shape "
                         f"{np.shape(k_ref)}: one balance per agent")
    n = (horizon + 1) * p.total
    shift = horizon * p.r2
    # floor(k - k_ref) in float64, a new 1-d array floored in place: the
    # deviation at the left edge of each karma's cell; two scalars give a
    # one-agent array
    dev = np.subtract(k, k_ref, dtype=float).reshape(-1)
    np.floor(dev, out=dev)
    if not dev.size:
        raise ValueError("the population is empty: k - k_ref holds no agent")
    nan = np.isnan(dev)
    if nan.any():
        agent = int(nan.argmax())
        raise ValueError(f"agent {agent} has a NaN karma deviation k - k_ref")
    # the deviations [-shift, n - 1 - shift] are the chain's cells; the one
    # below and the one above are the sentinels, so an index is cast once
    # and only from that range
    np.clip(dev, -shift - 1, n - shift, out=dev)
    idx = dev.astype(np.intp)
    idx += shift + 1
    hist = np.bincount(idx, minlength=n + 2)
    clamped = int(hist[0] + hist[-1])
    hist[1] += hist[0]
    hist[-2] += hist[-1]
    return hist[1:-1] / dev.size, clamped


def save_distribution_csv(chain: KarmaChain, dist, path) -> None:
    """Write a cell distribution as CSV, one row per cell: index (1-based),
    karma_deviation, probability, band (poor, ok, rich or wealthy), theta
    (`KarmaChain.theta`, inf and -inf included) and p_slow (`chill_prob`),
    which with p_home is A.  Numbers are Python floats' reprs, so every
    numpy writes the same bytes."""
    dist = _check_distribution(chain, dist)
    edges = _band_edges(chain.prices, chain.horizon)
    bands = np.repeat(("poor", "ok", "rich", "wealthy"), np.diff(edges))
    rows = zip(dist.tolist(), bands.tolist(), chain.theta.tolist(),
               chain.chill_prob.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,karma_deviation,probability,band,theta,p_slow\n")
        for i, (prob, band, theta, slow) in enumerate(rows):
            fh.write(f"{i + 1},{int(chain.deviation_of_cell(i))},{prob!r},"
                     f"{band},{theta!r},{slow!r}\n")
