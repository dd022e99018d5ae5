"""Generalized symmetric eigenproblems L u = lambda M u with diagonal mass.

Two backends:

* dense: reduce with the diagonal mass to the standard symmetric problem
  M^{-1/2} L M^{-1/2} and call LAPACK for its eigenvalues alone.  This is
  the oracle path; it is capped by a size limit, and the counting
  experiments of analysis reach it only when the dense backend is asked
  for by name.  eig_lowest's shift-invert iteration can converge on every
  value and still skip a copy of a repeated eigenvalue, which no residual
  sees, so its values stand only when two inertia counts agree with them.

* inertia: for counting only, by Sylvester's law of inertia: the
  negative pivots of an LDL^T-type elimination of L - x M count the
  pencil eigenvalues strictly below x.  A whole level-m graph (its
  Neumann pencil and the V_0-grounded one) is counted by
  BlockInertiaCounter, which needs only its scale factors and masses.
  For a batch of thresholds at once, it eliminates every level's bridges
  in one pass of a tridiagonal recurrence, then the blocks one level at a
  time through their D3 symmetry (scalar pivots and one 2x2 block per
  level); the Dirichlet-Neumann bracketing sums of any level are read off
  after that, so the decoupled component pencils are never counted one
  by one.  It is the default counting engine of analysis at every graph
  size and the only inertia counter the counting experiments use.  Any
  other pencil (one passed to count_below) is factored by InertiaCounter
  with SuperLU under a symmetric column ordering and no row interchanges;
  diag(U) is then the D of the LDL^T.

A threshold x sits numerically on an eigenvalue when InertiaCounter's
factorization is exactly singular, had to interchange rows, or has a
pivot magnitude under SMALL_PIVOT_REL * max|L|, or when one of the block
counter's scalar pivots is within PIVOT_ROUNDING (16 eps) times the
summed magnitudes of the terms that formed it, which bounds its rounding
whatever the scale of its level.  The threshold is then nudged up by
10 * eps_shift relatively and the elimination retried.

The backends are cross-validated against each other in the test suite on
every pencil family the package produces; InertiaCounter is the
independent oracle of the block counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import Pencil
from .errors import (
    AssemblyError,
    ConvergenceError,
    DomainError,
    LevelError,
    PencilSizeError,
    ThresholdAtEigenvalueError,
)
from .geometry import bridge_mass, cell_mass, check_graph_args, level_scales, vertex_count
from .sequences import MatchingSequence

DENSE_LIMIT = 4000
EPS_SHIFT = 1e-9
SMALL_PIVOT_REL = 1e-12
# Nudges of a threshold that sits numerically on an eigenvalue before it fails.
RETRIES = 3
# Counts are int64: a graph with more vertices than this is not counted.
COUNT_MAX = int(np.iinfo(np.int64).max)
# Spectrum.multiplicities joins neighbours closer than this, relative.
MULTIPLICITY_REL_GAP = 1e-8


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Spectrum:
    """Sorted eigenvalues of a pencil."""

    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def count_leq(self, x, eps_shift: float = EPS_SHIFT):
        """Right-continuous count #{lambda <= x} via the upward relative shift.

        An array of thresholds gives an array of counts.
        """
        counts = np.searchsorted(self.eigenvalues, np.multiply(x, 1.0 + eps_shift), side="left")
        return counts if np.ndim(x) else int(counts)

    def multiplicities(self) -> list[tuple[float, int]]:
        """Cluster eigenvalues whose relative gap is below MULTIPLICITY_REL_GAP."""
        ev = self.eigenvalues
        if len(ev) == 0:
            return []
        scale = max(abs(float(ev[0])), abs(float(ev[-1])), 1e-300)
        gap = np.diff(ev) > MULTIPLICITY_REL_GAP * np.maximum(np.abs(ev[:-1]), scale * 1e-6)
        ends = np.concatenate(([0], np.flatnonzero(gap) + 1, [len(ev)])).tolist()
        return [(float(np.mean(ev[a:b])), b - a) for a, b in zip(ends[:-1], ends[1:])]


@dataclass(frozen=True)
class InertiaResult:
    """Number of pencil eigenvalues strictly below the threshold actually used."""

    x: float
    count: int
    factorization_ok: bool


def lambda_max_bound(p: Pencil) -> float:
    """Gershgorin-style upper bound max_i (sum_j |L_ij|) / M_i."""
    rowsums = np.asarray(abs(p.L).sum(axis=1)).ravel()
    return float(np.max(rowsums / p.mass))


# ---------------------------------------------------------------------------
# Dense backend
# ---------------------------------------------------------------------------

def eig_dense(p: Pencil, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    """All eigenvalues of the pencil via mass-scaled symmetric reduction."""
    if p.n > dense_limit:
        raise PencilSizeError(
            f"pencil has {p.n} rows, above the dense limit {dense_limit}; "
            "use count_below for counting at this size"
        )
    if np.any(p.mass <= 0.0):
        raise AssemblyError("pencil mass must be strictly positive")
    d = 1.0 / np.sqrt(p.mass)
    A = p.L.toarray() * d[None, :] * d[:, None]
    try:
        w = scipy.linalg.eigh(0.5 * (A + A.T), eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from None
    return Spectrum(w)


def eig_lowest(p: Pencil, k: int, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    """The k smallest eigenvalues, by shift-invert iteration that inertia
    counts confirm, else dense (ConvergenceError above dense_limit)."""
    if not (1 <= k <= p.n):
        raise DomainError(f"k must lie in 1..{p.n}, got {k}")
    # ARPACK needs k well below n and is not worth starting on small pencils
    if p.n > 300 and k <= p.n - 2 and k <= p.n // 3:
        bound = lambda_max_bound(p)
        try:
            w = np.sort(spla.eigsh(p.L.tocsc(), k=k, M=sp.diags(p.mass).tocsc(),
                                   sigma=-1e-6 * bound, which="LM",
                                   v0=np.full(p.n, 1.0 / np.sqrt(p.n)),
                                   maxiter=5000, return_eigenvectors=False))
        except spla.ArpackNoConvergence as exc:
            failure = f"shift-invert iteration failed to converge: {exc}"
        else:
            if _counts_confirm(p, w, k, bound):
                return Spectrum(w)
            failure = "shift-invert values disagree with the inertia counts of the pencil"
        if p.n > dense_limit:
            raise ConvergenceError(failure)
    return Spectrum(eig_dense(p, max(dense_limit, p.n)).eigenvalues[:k])


def _counts_confirm(p: Pencil, w: np.ndarray, k: int, bound: float) -> bool:
    """Whether inertia counts of p agree that the sorted w are its k lowest:
    below a split between the copies of the top value (those within
    MULTIPLICITY_REL_GAP) and the next lower value, or just below w[0], p has
    as many eigenvalues as w, which a skipped copy breaks; just above the top
    value it has at least k.  The gap is at least 1e-12 of the Gershgorin
    bound, so a split below a zero eigenvalue stays clear of its rounding."""
    gap = MULTIPLICITY_REL_GAP * max(abs(float(w[-1])), 1e-4 * bound)
    lower = w[w < w[-1] - gap]
    split = 0.5 * (lower[-1] + w[lower.size]) if lower.size else w[0] - gap
    counter = InertiaCounter(p)
    try:
        return (counter.count_below(split).count == lower.size
                and counter.count_below(w[-1] + gap).count >= k)
    except ThresholdAtEigenvalueError:
        return False


# ---------------------------------------------------------------------------
# Sparse inertia backend
# ---------------------------------------------------------------------------

# perfbench/run.py stamps this into every result; there is no numba path
HAVE_NUMBA = False

# SuperLU column ordering.  The word-addressed vertex order already keeps
# the fill low: NATURAL factored fastest on every pencil from 12 to 3279
# rows, ahead of MMD_AT_PLUS_A and COLAMD.
PERMC_SPEC = "NATURAL"


class InertiaCounter:
    """Reusable inertia evaluator for one pencil.

    Keeps the CSC pattern of the stiffness matrix and the positions of its
    diagonal, which every threshold shares; each threshold x then only
    copies the values, shifts the diagonal and factors L - x M.
    """

    def __init__(self, pencil: Pencil):
        n = pencil.n
        self.n = n
        A = sp.csc_matrix(pencil.L, dtype=np.float64, copy=True)
        A.sum_duplicates()
        cols = np.repeat(np.arange(n), np.diff(A.indptr))
        self.diag_pos = np.flatnonzero(A.indices == cols)
        if not np.array_equal(cols[self.diag_pos], np.arange(n)):
            raise AssemblyError("stiffness matrix misses diagonal entries")
        self.indptr, self.indices, self.base = A.indptr, A.indices, A.data
        self.mass = pencil.mass.astype(np.float64)
        self.pivot_tol = SMALL_PIVOT_REL * float(np.max(np.abs(pencil.L.data)))
        # Below -lambda_max_bound the pencil has no eigenvalue and L - x M is
        # strictly diagonally dominant, so this factorization cannot fail; it
        # checks the backend and gives the fill, which is the same at every x.
        lu = self._factor(-1.0 - lambda_max_bound(pencil))
        if lu is None or np.any(lu.U.diagonal() <= 0.0):
            raise ConvergenceError("inertia set-up factorization is not positive definite")
        self.Lp = sp.tril(lu.L, k=-1, format="csc").indptr.astype(np.int64)

    @property
    def fill_nonzeros(self) -> int:
        """Nonzeros strictly below the diagonal of the SuperLU factor L."""
        return int(self.Lp[self.n])

    def _factor(self, x: float):
        """SuperLU factors of L - x M, or None when they must not be counted.

        SuperLU leaves the diagonal only where the pivot is exactly zero.
        The row interchange breaks the congruence, so such a factorization
        says nothing about the inertia, and neither does a singular one.
        """
        data = self.base.copy()
        data[self.diag_pos] -= x * self.mass
        A = sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))
        try:
            lu = spla.splu(A, permc_spec=PERMC_SPEC, diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            if "exactly singular" not in str(exc):
                raise
            return None
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        return lu

    def try_count(self, x: float) -> tuple[int, bool]:
        """One factorization attempt at threshold x: (count, succeeded)."""
        lu = self._factor(x)
        if lu is None:
            return 0, False
        d = lu.U.diagonal()
        if np.min(np.abs(d)) <= self.pivot_tol:
            return 0, False
        return int(np.count_nonzero(d < 0.0)), True

    def count_below(self, x: float, eps_shift: float = EPS_SHIFT) -> InertiaResult:
        """Count eigenvalues strictly below x, nudging x off near-singular shifts."""
        xt = x
        for attempt in range(RETRIES + 1):
            count, ok = self.try_count(xt)
            if ok:
                return InertiaResult(xt, count, attempt == 0)
            xt = xt * (1.0 + 10.0 * eps_shift)
        raise ThresholdAtEigenvalueError(
            f"threshold {x!r} sits on an eigenvalue: {RETRIES} retries with relative "
            f"shift {10 * eps_shift:g} all hit a singular or row-interchanged factorization "
            f"or a pivot below {self.pivot_tol:.3e}"
        )


# ---------------------------------------------------------------------------
# Block-elimination inertia for whole level-m graphs
# ---------------------------------------------------------------------------

# A block-elimination pivot within this many eps of the summed magnitudes of
# the terms that formed it is not told apart from zero by its rounding.
PIVOT_ROUNDING = 16.0 * np.finfo(float).eps


class BlockInertiaCounter:
    """Inertia of L - x M on a whole level-m graph: N_D and N_N in one pass.

    It is built from the graph's parameters, checked as build_graph
    checks them, and never builds the graph: ``n`` (the vertex count) and
    ``lambda_max`` (the Gershgorin bound of its pencils) are closed forms,
    and a graph whose counts int64 cannot hold raises LevelError.

    Every level-k block of the graph is the same weighted graph, so the
    pencil is counted one level at a time.  A level-(k-1) block is three
    level-k blocks, each reduced to the Schur complement S_k onto its three
    outer corners, joined by three level-k bridges.  A first pass
    eliminates the interior of every level's bridge at once by one
    tridiagonal recurrence (``_path``; pi_k negative pivots).  A second
    pass runs over the levels m..1 and eliminates each block's 6 inner
    corners (n_k negative eigenvalues), which leaves S_{k-1}.  By
    Haynsworth's inertia additivity, In(K) = In(K_11) + In(K / K_11), a
    level-(k-1) block with its outer corners grounded has
    nu_{k-1} = 3 nu_k + 3 pi_k + n_k negative eigenvalues, with nu_m = 0
    for a cell.  N_D (V_0 grounded) is nu_0 and N_N is nu_0 + neg(S_0).
    All thresholds of a batch are eliminated together, each quantity
    below as one vector (one row per level for the bridges).

    Every block is invariant under the group D3 of its three letters, so
    S_k = d I + o (J - I) is two numbers: its row sum w = d + 2o and its
    double standard eigenvalue sigma = d - o, and neg(S_k) = [w < 0] +
    2 [sigma < 0].  A bridge's symmetric path leaves its end-to-end
    conductance g and one row sum r at either end.  The 6 inner corners
    carry D3's regular representation 1 + 1 + 2 x 2: the trivial pivot
    t = (2w + sigma)/3 + r, the sign pivot sigma + r + 2g, and twice the
    standard block

        B = [[t + 3g/2, -(sqrt3/2) g], [-(sqrt3/2) g, sigma + r + g/2]],

    counted by its LDL^T pivots B_11 and B_22 - (3/4) g^2 / B_11, the
    second formed as sigma + r + g t / (2 B_11) so that no multiple of g
    cancels.  Only the trivial direction and B's first one meet the outer
    corners, each with coupling sqrt2 o, so S_{k-1} has
    w' = w - 2o (w + r)/t, which stays exactly zero at x = 0, and
    sigma' = d - 2 o^2 (B^-1)_11.

    The same passes give the Dirichlet-Neumann bracketing sums of a level
    j, the counts of the level-j decoupled forms.  Grounding V_j leaves
    3^j level-j blocks with grounded outer corners and the interior of
    each of the 3^k bridges of every level k <= j; cutting those bridges
    off their corners leaves the free level-j blocks and free-free paths:

        lowerSum_j = 3^j nu_j + sum_{k<=j} 3^k pi_k
        upperSum_j = 3^j (nu_j + neg(S_j)) + sum_{k<=j} 3^k phi_k

    The level pass only keeps nu_j and S_j; the sums are read off after
    it, with phi_k, the count of the free-free level-k bridge with its end
    masses, from one more ``_path`` that eliminates those bridges end to end.

    Every pivot (of a bridge, the inner corners or a free bridge) and
    w and sigma of S_j and S_0 are near-singular when their magnitude is
    at most PIVOT_ROUNDING times the summed magnitudes of the terms that
    formed them; those of w and sigma are carried through the levels.
    ``count_below`` then nudges the threshold as InertiaCounter does, for
    each count only on the pivots it depends on.
    """

    def __init__(self, seq: MatchingSequence, m: int, s: int, beta: float):
        check_graph_args(m, s, beta)
        self.n = vertex_count(m, s)
        if self.n > COUNT_MAX:
            raise LevelError(f"the level-{m} graph has {self.n} vertices, more than "
                             f"int64 counts hold ({COUNT_MAX})")
        self.s = s
        # the graph's conductances and masses, as build_graph lays them out
        delta, gamma = level_scales(seq, m)
        self.cell_conductance = 1.0 / float(delta[m])
        self.corner_mass = cell_mass(m, beta) / 3.0
        self.seg_conductance = 1.0 / (gamma / s)
        self.bridge_mass = np.array([bridge_mass(k, beta) for k in range(1, m + 1)])
        # Gershgorin: no eigenvalue of the graph's pencils or of their
        # decoupled components exceeds 2 sum|c| / mass over the vertex
        # classes (a corner with only its cell share, a corner at a level-k
        # bridge, an interior bridge node), so below -lambda_max L - x M is
        # positive definite; the first count_below checks that every pivot
        # comes out positive and clear of its rounding there.
        cell = 2.0 * abs(self.cell_conductance)
        ck, bm = np.abs(self.seg_conductance), self.bridge_mass
        bounds = [[2.0 * cell / self.corner_mass],
                  2.0 * (cell + ck) / (self.corner_mass + bm / (2 * s)),
                  4.0 * ck / (bm / s) if s > 1 else []]
        self.lambda_max = float(np.max(np.concatenate(bounds)))
        self._set_up = False

    def _eliminate(self, x: np.ndarray, level: Optional[int] = None):
        """(nu_0, S_0, interior pivots clear, sums) for each threshold in x.

        S_0 is (w, sigma, w_mag, sigma_mag): its row sum, its standard
        eigenvalue and the summed magnitudes of the terms that formed each.
        With a level j, sums holds lowerSum_j, upperSum_j and whether the
        pivots each depends on are clear; otherwise it is None.
        """
        s = self.s
        # first pass: every level's bridge interior at once, row k - 1 for
        # level k, leaving pi_k and the end-to-end g and end row sum r
        ck, bm = self.seg_conductance[:, None], self.bridge_mass[:, None]
        mu, end = -x * (bm / s), -x * (bm / (2 * s))
        bridge_clear = np.ones(mu.shape, dtype=bool)
        if s > 1:
            pi, g, r, r_mag = _path(ck, [mu] * (s - 1) + [end], ck, bridge_clear)
        else:
            # no interior; g as floats keeps the level pass on scalar arithmetic
            pi, g, r, r_mag = np.zeros(ck.shape, np.int64), ck.ravel().tolist(), end, np.abs(end)
        # second pass, levels m..1: S_m of a cell has off-diagonal -1/delta_m
        # and row sums -x * corner mass
        c = self.cell_conductance
        w = -self.corner_mass * x
        sigma = 3.0 * c + w
        w_mag, sigma_mag = np.abs(w), 3.0 * c + np.abs(w)
        nu = np.zeros(x.size, dtype=np.int64)
        ok = np.ones(x.size, dtype=bool)
        for k in range(ck.size, 0, -1):
            if k == level:
                at_level = nu, (w, sigma, w_mag, sigma_mag), ok & bridge_clear[k:].all(axis=0)
            gk, rk, rk_mag = g[k - 1], r[k - 1], r_mag[k - 1]
            # the inner corners: the trivial and sign pivots and B's two LDL^T pivots
            d, o = (w + 2.0 * sigma) / 3.0, (w - sigma) / 3.0
            d_mag = (w_mag + 2.0 * sigma_mag) / 3.0
            t_mag = (2.0 * w_mag + sigma_mag) / 3.0 + rk_mag
            t = _pivot((2.0 * w + sigma) / 3.0 + rk, t_mag, ok)
            sign = _pivot(sigma + rk + 2.0 * gk, sigma_mag + rk_mag + 2.0 * np.abs(gk), ok)
            p1 = _pivot(t + 1.5 * gk, t_mag + 1.5 * np.abs(gk), ok)
            # B_22 - (3/4) g^2 / p1, as sigma + r + g t / (2 p1)
            f = 0.5 * gk / p1
            p2 = _pivot(sigma + rk + f * t, sigma_mag + rk_mag + np.abs(f) * t_mag, ok)
            nu = 3 * (nu + pi[k - 1]) + _neg(t, sign) + 2 * _neg(p1, p2)
            # S_{k-1}, with (B^-1)_11 = B_22 / (p1 p2)
            binv = (sigma + rk + 0.5 * gk) / p1 / p2
            binv_mag = (sigma_mag + rk_mag + 0.5 * np.abs(gk)) / np.abs(p1) / np.abs(p2)
            w, w_mag = (w - 2.0 * o * (w + rk) / t,
                        w_mag + 2.0 * np.abs(o) * (w_mag + rk_mag) / np.abs(t))
            sigma, sigma_mag = d - 2.0 * o * o * binv, d_mag + 2.0 * o * o * binv_mag
        S0, ok_0 = (w, sigma, w_mag, sigma_mag), ok & bridge_clear.all(axis=0)
        if level is None:
            return nu, S0, ok_0, None
        # the sums of level j: its blocks grounded (nu_j) or free (+ neg(S_j)),
        # and each level-k bridge, k <= j, grounded (pi_k) or free-free (phi_k)
        nu_j, S_j, ok_j = at_level
        neg_s, clear_s = _schur_inertia(*S_j)
        ck, mu, end = ck[:level], mu[:level], end[:level]
        free_clear = np.ones(mu.shape, dtype=bool)
        phi, _, r, r_mag = _path(ck, [end] + [mu] * (s - 1) + [end], 0.0, free_clear)
        phi = phi + (_pivot(r, r_mag, free_clear) < 0.0)
        copies = 3 ** np.arange(1, level + 1)[:, None]  # 3^k bridges of level k
        sums = (3 ** level * nu_j + (copies * pi[:level]).sum(axis=0),
                3 ** level * (nu_j + neg_s) + (copies * phi).sum(axis=0),
                ok_j & bridge_clear[:level].all(axis=0), ok_j & clear_s & free_clear.all(axis=0))
        return nu, S0, ok_0, sums

    def try_count(self, x: np.ndarray, level: Optional[int] = None):
        """One pass at thresholds x: (counts, clear), one row per count.

        The rows are N_D and N_N, then lowerSum_j and upperSum_j for a
        bracketing level j; clear says where each count's pivots were all
        clear of their rounding.
        """
        nu, S0, ok, sums = self._eliminate(x, level)
        neg, clear = _schur_inertia(*S0)
        counts, oks = [nu, nu + neg], [ok, ok & clear]
        if sums is not None:
            counts += sums[:2]
            oks += sums[2:]
        return np.array(counts), np.array(oks)

    def count_below(self, x, eps_shift: float = EPS_SHIFT, level: Optional[int] = None):
        """(N_D, N_N) strictly below each threshold, nudging x off near-singular shifts.

        With a bracketing level j, 1 <= j <= m, (lowerSum_j, upperSum_j)
        follow.  As in InertiaCounter.count_below, a threshold whose pass
        hits a near-singular pivot is retried at x * (1 + 10 eps_shift),
        each count only while its own pivots fail: N_D needs the
        interior pivots clear, N_N also S_0.
        """
        m = self.seg_conductance.size
        if level is not None and not 1 <= level <= m:
            raise LevelError(f"bracketing level {level} outside 1..{m}")
        # the most a count can reach: n, or the n + 3^(j+1) - 3 vertices of
        # the level-j decoupled form
        if level is not None and self.n + 3 ** (level + 1) - 3 > COUNT_MAX:
            raise LevelError(f"the level-{level} bracketing sums of the level-{m} graph "
                             f"can exceed what int64 counts hold ({COUNT_MAX})")
        if not self._set_up:
            counts, ok = self.try_count(np.array([-1.0 - self.lambda_max]))
            if counts[1, 0] != 0 or not ok[1, 0]:
                raise ConvergenceError("block elimination set-up pass is not positive definite")
            self._set_up = True
        x = np.array(x, dtype=float).ravel()
        rows = 2 if level is None else 4
        counts = np.zeros((rows, x.size), dtype=np.int64)
        todo = np.ones((rows, x.size), dtype=bool)
        xt = x.copy()
        for _ in range(RETRIES + 1):
            idx = np.flatnonzero(todo.any(axis=0))
            if idx.size == 0:
                break
            count, ok = self.try_count(xt[idx], level)
            done = todo[:, idx] & ok
            counts[:, idx] = np.where(done, count, counts[:, idx])
            todo[:, idx] &= ~done
            xt[idx] = xt[idx] * (1.0 + 10.0 * eps_shift)
        if todo.any():
            bad = x[np.flatnonzero(todo.any(axis=0))[0]]
            raise ThresholdAtEigenvalueError(
                f"threshold {bad!r} sits on an eigenvalue: {RETRIES} retries with relative "
                f"shift {10 * eps_shift:g} all hit a near-singular pivot"
            )
        return tuple(counts)


def _pivot(p: np.ndarray, mag: np.ndarray, clear: np.ndarray) -> np.ndarray:
    """p, with each entry within PIVOT_ROUNDING * mag of zero replaced by that
    bound so that the rest of the batch stays finite; clear is and-ed in place
    with where p is clear of it."""
    tol = PIVOT_ROUNDING * mag
    small = np.abs(p) <= tol
    clear &= ~small
    return np.where(small, tol, p)


def _neg(*pivots: np.ndarray) -> np.ndarray:
    """How many of the pivots are negative, per threshold, as an integer."""
    return sum(p < 0.0 for p in pivots)


def _schur_inertia(w, sigma, w_mag, sigma_mag) -> tuple[np.ndarray, np.ndarray]:
    """neg(S) = [w < 0] + 2 [sigma < 0] of a D3-symmetric Schur complement,
    and whether w and sigma both clear their rounding."""
    clear = (np.abs(w) > PIVOT_ROUNDING * w_mag) & (np.abs(sigma) > PIVOT_ROUNDING * sigma_mag)
    return _neg(w) + 2 * _neg(sigma), clear


def _path(ck, row_sums: list, g, clear: np.ndarray):
    """Eliminate in order all but the last node of a path of conductances
    ck, whose nodes have the row sums row_sums in L - x M; g is the first
    node's conductance to an end outside the path (0.0 for none).

    Returns the negative pivots, that end's conductance g to the last node,
    and the last node's row sum r and the summed magnitudes that formed it;
    kept as a row sum, r keeps its digits as it goes to zero with x.  This
    Sturm count stays exact next to the path's own eigenvalues, where a
    complement onto its ends cancels to noise.  clear is and-ed in place
    with where every pivot clears its rounding.
    """
    r, r_mag, neg = row_sums[0], np.abs(row_sums[0]), 0
    for nxt in row_sums[1:]:
        piv = _pivot(r + g + ck, r_mag + np.abs(g) + ck, clear)
        neg = neg + (piv < 0.0)
        r, r_mag = nxt + ck * r / piv, np.abs(nxt) + ck * r_mag / np.abs(piv)
        g = g * ck / piv
    return neg, g, r, r_mag


# get_counter and eig_dense_cached are plain aliases of InertiaCounter and
# eig_dense; they stay only because perfbench's tracer looks both names up,
# until the benchmark refresh of ROADMAP item 4.
def get_counter(p: Pencil) -> InertiaCounter:
    return InertiaCounter(p)


def eig_dense_cached(p: Pencil, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    return eig_dense(p, dense_limit)


def count_below(p: Pencil, x: float) -> InertiaResult:
    """Sylvester inertia count #{lambda_k < x} for the pencil.

    To evaluate the right-continuous counting function N(x) = #{lambda <= x},
    call with x * (1 + EPS_SHIFT), as counting_function does.
    """
    return get_counter(p).count_below(x)
