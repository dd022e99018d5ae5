"""Effective resistances of the Hanoi networks.

``GroundedSolver`` works on an assembled graph.  It checks that every
connected component holds a grounded vertex, factors the grounded
conductance Laplacian once by SuperLU, and solves for a matrix of
right-hand sides, refining once a column whose residual is above
1e-10 * ||rhs||; the resistances among k vertices take one solve with
k-1 columns.  ``effective_resistance`` and ``harmonic_extension`` use it.

``compatibility_check``, ``cell_diameter_scaling`` and
``corner_chain_dimension`` build no graph: they trace the network onto
V_0 by series reduction, and onto every block's corners in closed form
(Delta-Y, series and four star-mesh steps a child, none of which
subtracts), from the scale factors alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .assembly import Pencil
from .errors import ConnectivityError, ConvergenceError, DomainError, LevelError
from .geometry import check_graph_args, check_memory, enumerate_words, level_scales
from .sequences import MatchingSequence, resistance_dimension

# The largest deviation from 2/3 that compatibility_check accepts.
COMPATIBILITY_TOL = 1e-9


class GroundedSolver:
    """Shared factorization of the Laplacian grounded at one vertex or a set of them.

    Raises ConnectivityError unless every connected component of the
    network holds a grounded vertex, which is when the grounded Laplacian
    is nonsingular.
    """

    def __init__(self, p: Pencil, ground: Union[int, Iterable[int]] = 0):
        self.n = p.n
        free = np.ones(p.n, dtype=bool)
        free[list(ground) if np.iterable(ground) else ground] = False
        _, component = connected_components(p.L, directed=False)
        floating = ~np.isin(component, component[~free])
        if floating.any():
            raise ConnectivityError(
                f"graph is disconnected: the component of vertex {int(np.argmax(floating))} "
                "holds no grounded vertex"
            )
        self.keep = np.flatnonzero(free)
        self._A = p.L[self.keep][:, self.keep].tocsc()
        self._lu = spla.splu(self._A)
        self._norm_A = spla.norm(self._A, 1)

    def solve(self, b_full: np.ndarray) -> np.ndarray:
        """Solve L phi = b with phi = 0 on the ground, for b of shape (n,) or (n, k).

        Each column is refined and checked on its own: after refinement its
        normwise backward error ||r|| / (||A|| ||x|| + ||b||) (1-norms) must
        be at most 1e-12, which a backward-stable solve meets however large
        the network's resistances make ||x||.  With one grounded vertex,
        each column of b must sum to zero.
        """
        b = b_full[self.keep].reshape(self.keep.size, -1)
        x = self._lu.solve(b)
        nb = np.linalg.norm(b, axis=0)
        r = b - self._A @ x
        bad = np.linalg.norm(r, axis=0) > 1e-10 * nb
        if bad.any():
            x[:, bad] += self._lu.solve(r[:, bad])
            r = b[:, bad] - self._A @ x[:, bad]
            scale = self._norm_A * np.abs(x[:, bad]).sum(axis=0) + np.abs(b[:, bad]).sum(axis=0)
            if not np.all(np.abs(r).sum(axis=0) <= 1e-12 * scale):
                raise ConvergenceError(
                    "grounded solve left a backward error above 1e-12 after refinement"
                )
        phi = np.zeros((self.n, x.shape[1]))
        phi[self.keep] = x
        return phi.reshape(b_full.shape)

    def resistance_matrix(self, ids) -> np.ndarray:
        """(k, k) effective resistances among k distinct vertices ``ids``.

        Column i of V holds the potentials at ``ids`` for the current
        e_{ids[i]} - e_{ids[0]} (column 0 is zero), from one solve with k-1
        columns; M = V - V[0] is their energy pairing, so
        R[i, j] = M[i, i] + M[j, j] - 2 M[i, j].
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise DomainError(f"vertex ids must have shape (k,), got {ids.shape}")
        k = ids.size
        if k < 2:
            raise DomainError(f"effective resistance needs two or more vertices, got {k}")
        if np.unique(ids).size < k:
            raise DomainError(f"effective resistance needs distinct vertices, got {ids.tolist()}")
        b = np.zeros((self.n, k - 1))
        b[ids[1:], np.arange(k - 1)] = 1.0
        b[ids[0]] = -1.0
        V = np.zeros((k, k))
        V[:, 1:] = self.solve(b)[ids]
        M = V - V[:1]
        M = 0.5 * (M + M.T)     # symmetric in exact arithmetic
        d = np.diag(M)
        R = d[:, None] + d[None, :] - 2.0 * M
        off = R[~np.eye(k, dtype=bool)]
        if not np.all(off > 0.0):
            raise ConnectivityError(
                f"nonpositive effective resistance {off.min()!r} among vertices {ids.tolist()}"
            )
        return R

    def pair_resistance(self, u: int, v: int) -> float:
        return float(self.resistance_matrix([u, v])[0, 1])


def effective_resistance(p: Pencil, u: int, v: int) -> float:
    """Effective resistance between vertices u and v of a Neumann pencil."""
    return GroundedSolver(p).pair_resistance(u, v)


@dataclass(frozen=True)
class CompatibilityReport:
    """Boundary-pair resistances per level and their deviation from 2/3."""

    levels: tuple
    resistances: tuple      # one (r12, r13, r23) triple per level
    max_deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance


def compatibility_check(
    seq: MatchingSequence,
    m_max: int,
    beta: float = 0.25,
) -> CompatibilityReport:
    """Check that all three V_0 pair resistances equal 2/3, to within
    COMPATIBILITY_TOL, on every level <= m_max.

    This is the defining property of matching pairs: each refinement is
    electrically equivalent to the unit-resistance triangle.  By the
    Y-Delta rule (Kennelly 1899), a block tracing to a triangle of edge a,
    joined to two copies of itself by bridges of resistance gamma_k, traces
    to one of edge (5/3) a + gamma_k: from a = delta_m, m such steps give
    the level-m pair resistance (2/3) a.  ``beta`` is only validated.
    """
    check_graph_args(m_max, 1, beta)
    delta, gamma = level_scales(seq, m_max)
    a = delta.copy()    # a[m]: level m's triangle edge, traced up a level per step
    for k in range(m_max, 0, -1):
        a[k:] = 5.0 / 3.0 * a[k:] + gamma[k - 1]
    r = (2.0 / 3.0 * a).tolist()
    return CompatibilityReport(tuple(range(m_max + 1)), tuple((x, x, x) for x in r),
                               max(abs(x - 2.0 / 3.0) for x in r), COMPATIBILITY_TOL)


@dataclass(frozen=True)
class HarmonicExtension:
    values: np.ndarray
    energy: float


def harmonic_extension(p: Pencil, fixed: dict) -> HarmonicExtension:
    """Energy-minimizing extension of the boundary data ``fixed``.

    Solves on the free vertices grounded at the fixed ones; the returned
    energy is the quadratic form of the full extension.
    """
    if not fixed:
        raise DomainError("harmonic extension needs at least one fixed vertex")
    for v, val in fixed.items():
        if not (0 <= v < p.n) or not math.isfinite(val):
            raise DomainError(f"bad fixed value {val!r} at vertex {v!r}")
    fixed_ids = np.array(sorted(fixed), dtype=np.int64)
    fixed_vals = np.array([fixed[v] for v in fixed_ids])
    u = np.zeros(p.n)
    u[fixed_ids] = fixed_vals
    if fixed_ids.size < p.n:
        u += GroundedSolver(p, ground=fixed_ids).solve(-(p.L[:, fixed_ids] @ fixed_vals))
    energy = float(u @ p.L.dot(u))
    return HarmonicExtension(u, energy)


@dataclass(frozen=True)
class DiameterScaling:
    """Per-level block diameters and the fitted decay rate.

    ``slope`` is the least-squares slope of log(max_w d_j(w)) against j,
    corrected for the known finite-prefix drift of the partial products
    a_j = delta_j / r**j when the family declares a limit (for constant
    families a_j = 1 and the correction vanishes).  ``slope_raw`` is the
    uncorrected fit.  The dimension estimate is ln 3 / (-slope).
    """

    levels: tuple
    max_diameter: tuple
    records: tuple              # (level, word, diameter) rows
    slope: float
    slope_raw: float
    dimension_estimate: float
    predicted_dimension: Optional[float]


# The resistance command's peak RSS per level-j_max block, less that of
# level 1: at most 658, 641 and 636 bytes at j_max = 10, 11, 12 (numpy 2.4).
_BYTES_PER_BLOCK = 660


def _star_mesh(p, q, r):
    """Star-mesh elimination of a node with three neighbours joined to it
    by conductances p, q and r: the conductances it adds between the
    neighbour pairs opposite p, q and r (Rosen 1924; the GTH algorithm of
    Grassmann, Taksar and Heyman 1985 is this step in sequence)."""
    s = p + q + r
    return q * r / s, p * r / s, p * q / s


# Child a's pair (0, 1), (0, 2), (1, 2) as an index into (AI, AJ, IJ),
# where A is its corner a and I, J its corners i < j, the other two.
_PAIR_KINDS = np.array([[0, 1, 2], [0, 2, 1], [2, 0, 1]])


def _child_exteriors(E: np.ndarray, t, b) -> np.ndarray:
    """Exterior conductances (3, 3B) of the children of B blocks, in rank
    order, from the blocks' E (3, B) on corner pairs (0, 1), (0, 2), (1, 2),
    for child triangle sides of conductance t and bridges of conductance b.

    Child a meets the rest of its parent at the parent's corner P_a (its
    own corner a) and by bridges at its corners i and j.  The triangles of
    the other children i and j turn into stars Y_i, Y_j with arms y = 3t
    (Delta-Y); in series, child a's corner i reaches Y_i through s =
    by / (b + y), corner j reaches Y_j likewise, and Y_i reaches Y_j
    through h = 1 / (2/y + 1/b).  With E on the parent's corners, each of
    P_i, P_j, Y_i and Y_j then has three neighbours when its turn comes,
    and star-mesh elimination of the four leaves child a's exterior.
    Every step adds, multiplies and divides non-negative numbers only, so
    every conductance keeps its relative accuracy.
    """
    y = 3.0 * t
    s = b * y / (b + y)
    h = 1.0 / (2.0 / y + 1.0 / b)
    # one row per child a: E on its parent's pairs (a, i), (a, j), (i, j)
    ai, aj, ij = E[[0, 0, 1]], E[[1, 2, 2]], E[[2, 1, 0]]
    # P_i's neighbours P_a, P_j, Y_i; then P_j's P_a, Y_i, Y_j
    pj_yi, pa_yi, pa_pj = _star_mesh(ai, ij, y)
    yi_yj, pa_yj, pa_yi2 = _star_mesh(aj + pa_pj, pj_yi, y)
    # Y_i's neighbours A_i, Y_j, P_a; then Y_j's A_j, P_a, A_i
    yj_pa, ai_pa, ai_yj = _star_mesh(s, yi_yj + h, pa_yi + pa_yi2)
    AI, IJ, AJ = _star_mesh(s, pa_yj + yj_pa, ai_yj)
    pairs = np.stack((AI + ai_pa, AJ, IJ))
    return pairs[_PAIR_KINDS.T, np.arange(3)].transpose(0, 2, 1).reshape(3, -1)


def _diameters(E: np.ndarray, delta_k) -> np.ndarray:
    """The largest corner-pair resistance of each level-k block, from its
    exterior E (3, B) and its own triangle of side delta_k: 1 / (c_ij +
    c_ik c_jk / (c_ik + c_jk)) over the pairs, c being E plus the triangle."""
    c = E + 1.0 / delta_k
    a, b = c[[1, 0, 0]], c[[2, 2, 1]]
    return 1.0 / (c + a * b / (a + b)).min(axis=0)


def cell_diameter_scaling(
    seq: MatchingSequence,
    m: int,
    j_max: int,
    beta: float = 0.25,
) -> DiameterScaling:
    """Corner-pair diameter proxy of every level-j block, j <= j_max.

    The proxy takes the maximum pairwise effective resistance among the
    three outer corners of the block; it underestimates the true block
    diameter by at most a bounded factor, which moves the intercept of
    the log fit, not its slope.

    The resistances come from a recursion over the levels, not from a
    graph.  Matching pairs make every level-k block, seen from its three
    corners, the triangle of side delta_k (the compatibility of
    Alonso-Ruiz, Freiberg and Kigami, 2016), so the network traced onto
    the corners of a block w is that triangle plus E_w, the conductances
    of everything outside w traced onto them (Kigami, *Analysis on
    Fractals*, 2001, ch. 2, on traces); the root has E = 0.  The children
    of w, triangles of side delta_k, are joined by the three level-k
    bridges of resistance gamma_k, with E_w on w's corners.  Seen from
    w*a, the other two children's triangles turn into stars, the bridges
    join them in series, and four star-mesh steps (two of w's corners,
    the two star centres) leave E_{w*a}, for all blocks of a level at
    once; no step subtracts.  The diameter is the largest of 1 / (c_ij +
    c_ik c_jk / (c_ik + c_jk)) over the corner pairs, c being E plus the
    block's own triangle.  Blocks are ranked rank(w*a) = 3 rank(w) + a - 1,
    so each level's records come out in ``enumerate_words`` order.  The
    level-m graph traces onto these corners as the level-j_max graph does
    for every m > j_max, so ``m`` does not change the result, and ``beta``
    (the masses) does not enter; both are validated and stay because the
    CLI and the benchmark pass them.
    A j_max whose recursion, priced at ``_BYTES_PER_BLOCK`` per level-j_max
    block, would exceed physical memory raises PencilSizeError before
    anything is allocated.
    """
    if not 0 <= j_max < m:
        raise LevelError(f"j_max ({j_max}) must be in 0..{m - 1}, below the graph level ({m})")
    check_graph_args(j_max, 1, beta)
    check_memory(_BYTES_PER_BLOCK * 3 ** j_max, f"the diameters of the level-{j_max} blocks")
    delta, gamma = level_scales(seq, j_max)
    E = np.zeros((3, 1))
    records, max_d = [], []
    for k in range(j_max + 1):
        d = _diameters(E, delta[k])
        records.extend((k, w, dw) for w, dw in zip(enumerate_words(k), d.tolist()))
        max_d.append(float(d.max()))
        if k < j_max:
            E = _child_exteriors(E, 1.0 / delta[k + 1], 1.0 / gamma[k])

    js = np.arange(j_max + 1, dtype=float)
    logs = np.log(np.array(max_d))
    slope_raw = float(np.polyfit(js, logs, 1)[0]) if j_max >= 1 else float("nan")
    limit = seq.limit_r
    if limit is not None and j_max >= 1:
        slope = float(np.polyfit(js, logs - np.log(delta / limit ** js), 1)[0])
        predicted = resistance_dimension(limit)
    else:
        slope = slope_raw
        predicted = None
    dim_est = math.log(3.0) / (-slope) if slope < 0 else float("nan")
    return DiameterScaling(
        levels=tuple(range(j_max + 1)),
        max_diameter=tuple(max_d),
        records=tuple(records),
        slope=slope,
        slope_raw=slope_raw,
        dimension_estimate=dim_est,
        predicted_dimension=predicted,
    )


# The corner chain 1^j is stepped to level _CHAIN_LEVELS and its log
# diameter fitted from level _CHAIN_FIT_FROM on.
_CHAIN_LEVELS = 48
_CHAIN_FIT_FROM = 20


def corner_chain_dimension(seq: MatchingSequence) -> Optional[float]:
    """ln 3 / (-slope) of the log diameter of the corner block 1^j against
    j, over j = 20..48; None for an explicit sequence whose ratios end
    before level 48 (no tail rule).

    The exterior of 1^j is stepped with ``_child_exteriors`` on one block a
    level, in units of 1 / delta_j (the trace is homogeneous of degree one
    in the conductances), so every value stays of order one whatever the
    depth.  As in ``cell_diameter_scaling``, a family with limit r fits
    the log diameter less ln(delta_j / r^j), which removes the drift of a
    slowly converging prefix; it reads the resistance dimension
    ln 3 / (-ln r) to within 1e-7 relative on constant(0.5),
    geometric_to_limit(0.6, 0.5) and constant(0.05).  The depth costs 48
    small steps and no memory check.
    """
    if seq.kind == "explicit" and seq.tail is None and len(seq.values) < _CHAIN_LEVELS:
        return None
    limit = seq.limit_r
    E = np.zeros((3, 1))
    log_delta, logs = 0.0, []
    for k in range(_CHAIN_LEVELS + 1):
        drift = k * math.log(limit) if limit is not None else log_delta
        logs.append(math.log(float(_diameters(E, 1.0)[0])) + drift)
        if k < _CHAIN_LEVELS:
            p = seq.pair(k + 1)
            E = _child_exteriors(p.r * E, 1.0, p.r / p.rho)[:, :1]
            log_delta += math.log(p.r)
    js = np.arange(_CHAIN_FIT_FROM, _CHAIN_LEVELS + 1, dtype=float)
    slope = float(np.polyfit(js, logs[_CHAIN_FIT_FROM:], 1)[0])
    return math.log(3.0) / (-slope) if slope < 0 else float("nan")
