"""Effective-resistance computations on the graph approximations.

Every quantity here comes from one solve path, ``GroundedSolver``: the
conductance Laplacian with its grounded vertices removed is factored once
by SuperLU; a solve takes a matrix of right-hand sides, and a column whose
residual is above 1e-10 * ||rhs|| gets one step of iterative refinement.
A disconnected network raises ``ConnectivityError``.  The resistances
among k vertices take k-1 columns; a stack of vertex sets is solved in
chunks of whole sets, with at most STACK_COLUMNS columns per solve.

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
from .geometry import _check_memory, block_corner_ids, build_graph, enumerate_words
from .sequences import MatchingSequence, resistance_dimension, scale_factors

# The largest deviation from 2/3 that compatibility_check accepts.
COMPATIBILITY_TOL = 1e-9

# Right-hand-side columns per solve of a stack of vertex sets: an unchunked
# stack of the 243 level-5 blocks raised peak memory by a fifth.
STACK_COLUMNS = 64


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
        """Effective resistances among k distinct vertices: (k, k) for one set
        ``ids`` of shape (k,), (B, k, k) for a stack of shape (B, k).

        For each set, column i of V holds the potentials at the set for the
        current e_{ids[i]} - e_{ids[0]} (column 0 is zero); M = V - V[0] is
        their energy pairing, so R[i, j] = M[i, i] + M[j, j] - 2 M[i, j].  A
        stack is solved in chunks of whole sets of at most STACK_COLUMNS
        columns; a single set takes one solve with k-1 columns.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim not in (1, 2):
            raise DomainError(f"vertex ids must have shape (k,) or (B, k), got {ids.shape}")
        stack = ids[None] if ids.ndim == 1 else ids
        k = stack.shape[1]
        if k < 2:
            raise DomainError(f"effective resistance needs two or more vertices, got {k}")
        repeated = (np.diff(np.sort(stack, axis=1), axis=1) == 0).any(axis=1)
        if repeated.any():
            raise DomainError(
                "effective resistance needs distinct vertices, got "
                f"{stack[np.argmax(repeated)].tolist()}"
            )
        per_solve = max(1, STACK_COLUMNS // (k - 1))
        R = np.empty((len(stack), k, k))
        for start in range(0, len(stack), per_solve):
            R[start:start + per_solve] = self._stack_resistances(stack[start:start + per_solve])
        return R[0] if ids.ndim == 1 else R

    def _stack_resistances(self, stack: np.ndarray) -> np.ndarray:
        """resistance_matrix of a (B, k) stack of distinct-vertex sets, from one solve."""
        sets, k = stack.shape
        cols = np.arange(sets * (k - 1)).reshape(sets, k - 1)
        b = np.zeros((self.n, cols.size))
        b[stack[:, 1:], cols] = 1.0
        b[stack[:, :1], cols] = -1.0
        phi = self.solve(b).reshape(self.n, sets, k - 1)
        V = np.zeros((sets, k, k))
        V[:, :, 1:] = phi[stack, np.arange(sets)[:, None]]
        M = V - V[:, :1]
        M = 0.5 * (M + M.transpose(0, 2, 1))     # symmetric in exact arithmetic
        d = np.diagonal(M, axis1=1, axis2=2)
        R = d[:, :, None] + d[:, None, :] - 2.0 * M
        off = R[:, ~np.eye(k, dtype=bool)]
        bad = ~np.all(off > 0.0, axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ConnectivityError(
                f"nonpositive effective resistance {off[i].min()!r} among vertices "
                f"{stack[i].tolist()}"
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
    _check_memory(m_max, 1)     # the deepest graph, before the first is factored
    triples = []
    max_dev = 0.0
    for m in range(m_max + 1):
        g = build_graph(seq, m, s=1, beta=beta)
        R = GroundedSolver(assemble_neumann(g)).resistance_matrix(block_corner_ids(g, 0)[0])
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
    """Corner-pair diameter proxy of every level-j block, j <= j_max.

    The proxy takes the maximum pairwise effective resistance among the
    three outer corners of the block; it underestimates the true block
    diameter by at most a bounded factor, which moves the intercept of
    the log fit, not its slope.

    The resistances come from the level-j_max graph, whatever ``m`` is.
    Matching pairs make every cell, seen from its three corners, the
    triangle it refines (the compatibility of Alonso-Ruiz, Freiberg and
    Kigami), so the level-m graph traced onto V_{j_max} is the level-j_max
    graph (Kigami, *Analysis on Fractals*, 2001, ch. 2, on traces), and
    the corner resistances of blocks of level <= j_max are the same on
    both.  A larger graph only loses digits to rounding.  ``m`` stays in
    the signature, validated as 0 <= j_max < m, because the CLI and the
    benchmark pass it positionally.  Each level's 3**j corner triples are
    one stacked ``resistance_matrix`` call.
    """
    if not 0 <= j_max < m:
        raise LevelError(f"j_max ({j_max}) must be in 0..{m - 1}, below the graph level ({m})")
    g = build_graph(seq, j_max, s=1, beta=beta)
    solver = GroundedSolver(assemble_neumann(g))
    records = []
    max_d, min_d = [], []
    for j in range(j_max + 1):
        d = solver.resistance_matrix(block_corner_ids(g, j)).max(axis=(1, 2))
        records.extend((j, w, dw) for w, dw in zip(enumerate_words(j), d.tolist()))
        max_d.append(float(d.max()))
        min_d.append(float(d.min()))

    js = np.arange(j_max + 1, dtype=float)
    logs = np.log(np.array(max_d))
    slope_raw = float(np.polyfit(js, logs, 1)[0]) if j_max >= 1 else float("nan")
    limit = seq.limit_r
    if limit is not None and j_max >= 1:
        sf = scale_factors(seq, j_max)
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
    rng = np.random.default_rng(seed)
    if anchors is None:
        anchors = list(range(min(3, n)))
    a = np.repeat(np.asarray(anchors, dtype=np.int64), n)
    v = np.tile(np.arange(n), len(anchors))
    # a call per pair: one call of size (k, 2) would make all 2k vertices distinct
    draws = np.array([rng.choice(n, size=2, replace=False) for _ in range(k)],
                     dtype=np.int64).reshape(k, 2)
    pairs = np.concatenate([np.stack([a, v], axis=1)[a != v], draws])
    R = GroundedSolver(p).resistance_matrix(pairs)
    return DiameterResult(float(R[:, 0, 1].max(initial=0.0)), False, len(pairs), seed)
