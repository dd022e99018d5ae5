"""Effective-resistance computations on the graph approximations.

Every quantity here comes from one solve path, ``GroundedSolver``: the
conductance Laplacian with its grounded vertices removed is factored once
by SuperLU; a solve takes a matrix of right-hand sides, and a column whose
residual is above 1e-10 * ||rhs|| gets one step of iterative refinement.
A disconnected network raises ``ConnectivityError``.  The resistances
among k vertices take one solve with k-1 columns.

The module verifies the electrical equivalence that defines matching
pairs (all boundary pair resistances equal 2/3 at every level), computes
harmonic extensions, and estimates the resistance-metric dimension from
the scaling of block diameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import Pencil, assemble_neumann
from .errors import ConnectivityError, DomainError, LevelError, PencilSizeError
from .geometry import build_graph, cell_corner_ids, enumerate_words
from .sequences import MatchingSequence, resistance_dimension, scale_factors

# The largest deviation from 2/3 that compatibility_check accepts.
COMPATIBILITY_TOL = 1e-9


class GroundedSolver:
    """Shared factorization of the Laplacian grounded at one vertex or a set of them."""

    def __init__(self, p: Pencil, ground: Union[int, Iterable[int]] = 0):
        self.n = p.n
        free = np.ones(p.n, dtype=bool)
        free[list(ground) if np.iterable(ground) else ground] = False
        self.keep = np.flatnonzero(free)
        A = p.L[self.keep][:, self.keep].tocsc()
        try:
            self._lu = spla.splu(A)
        except RuntimeError as exc:
            if "exactly singular" not in str(exc):
                raise
            raise ConnectivityError(
                "grounded Laplacian is exactly singular; graph is disconnected"
            ) from None
        self._A = A

    def solve(self, b_full: np.ndarray) -> np.ndarray:
        """Solve L phi = b with phi = 0 on the ground, for b of shape (n,) or (n, k).

        Each column is refined and checked on its own.  With one grounded
        vertex, each column of b must sum to zero.
        """
        b = b_full[self.keep].reshape(self.keep.size, -1)
        x = self._lu.solve(b)
        nb = np.linalg.norm(b, axis=0)
        r = b - self._A @ x
        bad = np.linalg.norm(r, axis=0) > 1e-10 * nb
        if bad.any():
            x[:, bad] += self._lu.solve(r[:, bad])
            r = b[:, bad] - self._A @ x[:, bad]
            if np.any(np.linalg.norm(r, axis=0) > 1e-8 * nb[bad]):
                raise ConnectivityError(
                    "grounded system did not solve to tolerance; graph may be disconnected"
                )
        phi = np.zeros((self.n, x.shape[1]))
        phi[self.keep] = x
        return phi.reshape(b_full.shape)

    def resistance_matrix(self, ids) -> np.ndarray:
        """Effective resistances among the k distinct vertices ``ids``, from one solve.

        Column i of V holds the potentials at ``ids`` for the current
        e_{ids[i]} - e_{ids[0]} (column 0 is zero); M = V - V[0] is their
        energy pairing, so R[i, j] = M[i, i] + M[j, j] - 2 M[i, j].
        """
        ids = np.asarray(ids, dtype=np.int64)
        k = ids.size
        if k < 2 or np.unique(ids).size != k:
            raise DomainError("effective resistance needs two or more distinct vertices")
        b = np.zeros((self.n, k - 1))
        b[ids[1:], np.arange(k - 1)] = 1.0
        b[ids[0]] = -1.0
        V = np.zeros((k, k))
        V[:, 1:] = self.solve(b)[ids]
        M = V - V[0]
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
    electrically equivalent to the unit-resistance triangle.
    """
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    triples = []
    max_dev = 0.0
    for m in range(m_max + 1):
        g = build_graph(seq, m, s=1, beta=beta)
        R = GroundedSolver(assemble_neumann(g)).resistance_matrix(cell_corner_ids(g, ""))
        triple = (float(R[0, 1]), float(R[0, 2]), float(R[1, 2]))
        triples.append(triple)
        max_dev = max(max_dev, max(abs(r - 2.0 / 3.0) for r in triple))
    return CompatibilityReport(tuple(range(m_max + 1)), tuple(triples), max_dev,
                               COMPATIBILITY_TOL)


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
    min_diameter: tuple
    records: tuple              # (level, word, diameter) rows
    slope: float
    slope_raw: float
    dimension_estimate: float
    predicted_dimension: Optional[float]


def cell_diameter_scaling(
    seq: MatchingSequence,
    m: int,
    j_max: int,
    beta: float = 0.25,
) -> DiameterScaling:
    """Corner-pair diameter proxy of every level-j block on the level-m graph.

    The proxy takes the maximum pairwise effective resistance among the
    three outer corners of the block; it underestimates the true block
    diameter by at most a bounded factor, which moves the intercept of
    the log fit, not its slope.
    """
    if j_max >= m:
        raise LevelError(f"j_max ({j_max}) must be below the graph level ({m})")
    g = build_graph(seq, m, s=1, beta=beta)
    p = assemble_neumann(g)
    solver = GroundedSolver(p)
    records = []
    max_d, min_d = [], []
    for j in range(j_max + 1):
        best = -np.inf
        worst = np.inf
        for w in enumerate_words(j):
            d = float(solver.resistance_matrix(cell_corner_ids(g, w)).max())
            records.append((j, w, d))
            best = max(best, d)
            worst = min(worst, d)
        max_d.append(best)
        min_d.append(worst)

    js = np.arange(j_max + 1, dtype=float)
    logs = np.log(np.array(max_d))
    slope_raw = float(np.polyfit(js, logs, 1)[0]) if j_max >= 1 else float("nan")
    limit = seq.limit_r
    if limit is not None and j_max >= 1:
        sf = scale_factors(seq, max(j_max, 1))
        drift = np.concatenate(([1.0], sf.partial_products[:j_max]))
        slope = float(np.polyfit(js, logs - np.log(drift), 1)[0])
        predicted = resistance_dimension(limit)
    else:
        slope = slope_raw
        predicted = None
    dim_est = math.log(3.0) / (-slope) if slope < 0 else float("nan")
    return DiameterScaling(
        levels=tuple(range(j_max + 1)),
        max_diameter=tuple(max_d),
        min_diameter=tuple(min_d),
        records=tuple(records),
        slope=slope,
        slope_raw=slope_raw,
        dimension_estimate=dim_est,
        predicted_dimension=predicted,
    )


@dataclass(frozen=True)
class DiameterResult:
    value: float
    exact: bool
    pairs_checked: int
    seed: Optional[int]


def resistance_diameter(
    p: Pencil,
    mode: str = "exact",
    k: int = 200,
    seed: int = 20240601,
    anchors: Optional[list] = None,
) -> DiameterResult:
    """Maximum pairwise effective resistance of the pencil's graph.

    ``exact`` solves for all vertices at once (n - 1 right-hand sides,
    so n <= 2000) and maximizes over all pairs.  ``sampled`` maximizes
    over k random pairs plus all pairs between the anchor vertices (the
    boundary corners, when the caller passes them; the lowest three ids
    otherwise) and the rest, and is only a lower bound.
    """
    n = p.n
    if mode == "exact":
        if n > 2000:
            raise PencilSizeError(
                f"exact diameter needs n <= 2000, got {n}; use mode='sampled'"
            )
        R = GroundedSolver(p).resistance_matrix(np.arange(n))
        return DiameterResult(float(R.max()), True, n * (n - 1) // 2, None)
    if mode != "sampled":
        raise DomainError(f"unknown diameter mode {mode!r}")
    solver = GroundedSolver(p)
    rng = np.random.default_rng(seed)
    best = 0.0
    pairs = 0
    if anchors is None:
        anchors = list(range(min(3, n)))
    for a in anchors:
        for v in range(n):
            if v == a:
                continue
            best = max(best, solver.pair_resistance(a, v))
            pairs += 1
    for _ in range(k):
        u, v = rng.choice(n, size=2, replace=False)
        best = max(best, solver.pair_resistance(int(u), int(v)))
        pairs += 1
    return DiameterResult(best, False, pairs, seed)
