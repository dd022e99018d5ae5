"""Generalized symmetric eigenproblems L u = lambda M u with diagonal mass.

One counting engine and two oracles.

* BlockInertiaCounter counts a whole level-m graph (its Neumann pencil
  and the V_0-grounded one) by Sylvester's law of inertia: the negative
  pivots of an elimination of L - x M count the pencil eigenvalues
  strictly below x.  It needs only the scale factors and masses.  For a
  batch of thresholds at once, it eliminates every level's bridges in
  one pass of a tridiagonal recurrence, then the blocks one level at a
  time through their D3 symmetry (scalar pivots and one 2x2 block per
  level); the Dirichlet-Neumann bracketing sums of any level are read off
  after that, so the decoupled component pencils are never counted one
  by one.  It is the counting engine of analysis at every graph size,
  and multisection on its counts brackets eigenvalues
  (analysis.eigenvalue_brackets, the spectrum command's engine).

* eig_dense reduces an assembled pencil with its diagonal mass to the
  standard symmetric problem M^{-1/2} L M^{-1/2} and calls LAPACK for its
  eigenvalues alone, under a size limit.  InertiaCounter (count_below)
  factors any assembled pencil with SuperLU under a symmetric column
  ordering and no row interchanges; diag(U) is then the D of the LDL^T.
  Both are the block counter's independent oracles in the tests and in
  perfbench; InertiaCounter where LAPACK's error on clustered eigenvalues
  passes the threshold shift (ratios r below about 0.11).

A threshold x sits numerically on an eigenvalue when InertiaCounter's
factorization is exactly singular, had to interchange rows, or has a
pivot magnitude under SMALL_PIVOT_REL * max|L|; count_below then nudges
x up by 10 * eps_shift and retries.  BlockInertiaCounter.count never
moves x: it certifies each count by two float counts either side of x,
and recounts x in 50 digits where they disagree.
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
    LevelError,
    PencilSizeError,
    ThresholdAtEigenvalueError,
)
from .geometry import bridge_mass, cell_mass, check_graph_args, level_scales, vertex_count
from .sequences import MatchingSequence

DENSE_LIMIT = 4000
EPS_SHIFT = 1e-9
SMALL_PIVOT_REL = 1e-12
# InertiaCounter's nudges of a threshold on an eigenvalue before it fails.
RETRIES = 3
# Counts are int64: a graph with more vertices than this is not counted.
COUNT_MAX = int(np.iinfo(np.int64).max)


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


@dataclass(frozen=True)
class InertiaResult:
    """Number of pencil eigenvalues strictly below the threshold actually used."""

    x: float
    count: int
    factorization_ok: bool


def lambda_max_bound(p: Pencil) -> float:
    """Gershgorin-style upper bound max_i (sum_j |L_ij|) / M_i."""
    rowsums = np.asarray(abs(p.L).sum(axis=1)).ravel()
    return float(np.max(rowsums / p.mass, initial=0.0))


# ---------------------------------------------------------------------------
# Dense oracle
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
    if p.n == 0:    # not every scipy this package supports is known to take a 0x0 eigh
        return Spectrum(np.empty(0))
    d = 1.0 / np.sqrt(p.mass)
    A = p.L.toarray() * d[None, :] * d[:, None]
    try:
        w = scipy.linalg.eigh(0.5 * (A + A.T), eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from None
    return Spectrum(w)


# ---------------------------------------------------------------------------
# Sparse inertia oracle
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
        self.pivot_tol = SMALL_PIVOT_REL * float(np.max(np.abs(pencil.L.data), initial=0.0))
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
        if np.min(np.abs(d), initial=np.inf) <= self.pivot_tol:
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
            f"threshold {float(x)} sits on an eigenvalue: {RETRIES} retries with relative "
            f"shift {10 * eps_shift:g} all hit a singular or row-interchanged factorization "
            f"or a pivot below {self.pivot_tol:.3e}"
        )


# ---------------------------------------------------------------------------
# Block-elimination inertia for whole level-m graphs
# ---------------------------------------------------------------------------

# The certificate counts x (1 -+ CERT_OFFSET), outside a float count's measured
# 3e-13 relative backward error, and recounts in FALLBACK_DPS digits.
CERT_OFFSET = 1e-12
FALLBACK_DPS = 50


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
    tridiagonal recurrence (``_path``; pi_k negative pivots, 0 when s = 1
    leaves a bridge no interior node).  A second
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

    ``count`` certifies what it returns.  A float Sturm count is the
    exact count of a nearby matrix (Demmel, Dhillon and Ren, 1995), here
    one whose eigenvalues lie within a relative 3e-13 of the pencil's: a
    measured bound, not a proven one.  So the counts at x (1 -+
    CERT_OFFSET) bound N(x) below and above, and where they agree they
    are N(x) exactly.  Where they disagree, or a pivot is exactly zero or
    not finite, the same elimination recounts x in FALLBACK_DPS-digit
    mpmath arithmetic; an exactly zero pivot there too raises
    ThresholdAtEigenvalueError.  ``certified`` and ``fallbacks`` count the
    thresholds settled each way.  The spectrum reads single float counts
    (``_float_count``): its brackets bound the crossed counts near a
    cluster in any case.  The first pass also checks that every pivot
    comes out positive below -lambda_max, at -1 - lambda_max.  A pass
    costs about the same for one threshold as for a hundred (its numpy
    calls run once per level), so neither that check nor the certificate's
    second point costs a pass of its own.
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
        # positive definite; the first pass checks that every pivot comes
        # out positive there.
        cell = 2.0 * abs(self.cell_conductance)
        ck, bm = np.abs(self.seg_conductance), self.bridge_mass
        bounds = [[2.0 * cell / self.corner_mass],
                  2.0 * (cell + ck) / (self.corner_mass + bm / (2 * s)),
                  4.0 * ck / (bm / s) if s > 1 else []]
        self.lambda_max = float(np.max(np.concatenate(bounds)))
        self._set_up = False
        self.certified = 0      # thresholds whose two float counts agreed
        self.fallbacks = 0      # thresholds recounted in FALLBACK_DPS digits

    def _eliminate(self, x: np.ndarray, level: Optional[int] = None):
        """(counts, ok, S_0) at thresholds x, float or mpmath: one row per
        count, N_D and N_N, then lowerSum_j and upperSum_j with a level j;
        ok where no pivot a count rests on is exactly zero or not finite;
        S_0 as (w, sigma), its row sum and its standard eigenvalue.  Only
        the last pivots are tested: a zero pivot of a bridge leaves its r,
        and a zero t, p1 or p2 its level's w or sigma, infinite or nan up to
        S_0 (an infinite w or sigma turns nan a level up, and nan stays).  A
        zero sign pivot divides nothing; its count is then that of a
        singular matrix next to L - x M, all the certificate needs."""
        s = self.s
        # first pass: every level's bridge interior at once, row k - 1 for
        # level k, leaving pi_k and the end-to-end g and end row sum r (at
        # s = 1 no node: pi_k = 0, g = ck and r the end's row sum)
        ck, bm = self.seg_conductance[:, None], self.bridge_mass[:, None]
        mu, end = -x * (bm / s), -x * (bm / (2 * s))
        pi, g, r = _path(ck, [mu] * (s - 1) + [end], ck)
        # second pass, levels m..1: S_m of a cell has off-diagonal -1/delta_m
        # and row sums -x * corner mass
        c = self.cell_conductance
        w = -self.corner_mass * x
        sigma = 3.0 * c + w
        nu = np.zeros(x.size, dtype=np.int64)
        for k in range(ck.size, 0, -1):
            if k == level:
                at_level = nu, w, sigma
            gk, rk = g[k - 1], r[k - 1]
            # the inner corners: the trivial and sign pivots and B's two LDL^T pivots
            d, o = (w + 2.0 * sigma) / 3.0, (w - sigma) / 3.0
            t = (2.0 * w + sigma) / 3.0 + rk
            sign = sigma + rk + 2.0 * gk
            p1 = t + 1.5 * gk
            # B_22 - (3/4) g^2 / p1, as sigma + r + g t / (2 p1)
            f = 0.5 * gk / p1
            p2 = sigma + rk + f * t
            nu = 3 * (nu + pi[k - 1]) + _neg(t, sign) + 2 * _neg(p1, p2)
            # S_{k-1}, with (B^-1)_11 = B_22 / (p1 p2)
            binv = (sigma + rk + 0.5 * gk) / p1 / p2
            w = w - 2.0 * o * (w + rk) / t
            sigma = d - 2.0 * o * o * binv
        ok = _finite(w) & _finite(sigma)
        neg, ok_n = _schur_inertia(w, sigma, ok)
        counts, oks = [nu, nu + neg], [ok, ok_n]
        if level is not None:
            # the sums of level j: its blocks grounded (nu_j) or free (+ neg(S_j)),
            # and each level-k bridge, k <= j, grounded (pi_k) or free-free (phi_k)
            nu_j, w_j, sigma_j = at_level
            ok_j = _finite(w_j) & _finite(sigma_j) & _finite(r[:level]).all(axis=0)
            neg_s, ok_s = _schur_inertia(w_j, sigma_j, ok_j)
            ck, mu, end = ck[:level], mu[:level], end[:level]
            phi, _, r = _path(ck, [end] + [mu] * (s - 1) + [end], 0.0)
            phi = phi + (r < 0.0)
            copies = 3 ** np.arange(1, level + 1)[:, None]  # 3^k bridges of level k
            counts += [3 ** level * nu_j + (copies * pi[:level]).sum(axis=0),
                       3 ** level * (nu_j + neg_s) + (copies * phi).sum(axis=0)]
            oks += [ok_j, ok_s & (_finite(r) & (r != 0.0)).all(axis=0)]
        return np.array(counts), np.array(oks), (w, sigma)

    def _pass(self, x: np.ndarray, level: Optional[int] = None):
        """``_eliminate``'s (counts, ok) at thresholds x.  The first pass also
        counts at -1 - lambda_max, where every pivot must come out
        positive, and raises ConvergenceError if N_N is not 0 there."""
        set_up = not self._set_up
        if set_up:
            x = np.concatenate(([-1.0 - self.lambda_max], x))
        # a zero pivot's infinities and nans reach only the counts ok marks
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            counts, ok, _ = self._eliminate(x, level)
        if set_up:
            if counts[1, 0] != 0 or not ok[1, 0]:
                raise ConvergenceError("block elimination set-up pass is not positive definite")
            self._set_up = True
            counts, ok = counts[:, 1:], ok[:, 1:]
        return counts, ok

    def count(self, x: np.ndarray, level: Optional[int] = None) -> np.ndarray:
        """#{lambda < x} = #{lambda <= x} at each threshold x, certified, one
        row per count: N_D and N_N, then lowerSum_j and upperSum_j for a
        bracketing level j, 1 <= j <= m."""
        if level is not None:
            m = self.seg_conductance.size
            if not 1 <= level <= m:
                raise LevelError(f"bracketing level {level} outside 1..{m}")
            # a sum counts at most the n + 3^(j+1) - 3 vertices of the level-j decoupled form
            if self.n + 3 ** (level + 1) - 3 > COUNT_MAX:
                raise LevelError(f"the level-{level} bracketing sums of the level-{m} graph "
                                 f"can exceed what int64 counts hold ({COUNT_MAX})")
        x = np.asarray(x, dtype=float)
        counts, ok = self._pass((x * [[1.0 - CERT_OFFSET], [1.0 + CERT_OFFSET]]).ravel(), level)
        below, above = np.split(counts, 2, axis=1)
        agree = (below == above) & np.logical_and(*np.split(ok, 2, axis=1))
        self.certified += int(np.count_nonzero(agree.all(axis=0)))
        return self._recount(x, below, agree, level)

    def _float_count(self, x: np.ndarray) -> np.ndarray:
        """Rows N_D and N_N at thresholds x from one float pass, uncertified;
        recounted in 50 digits only where a last pivot is zero or not finite."""
        return self._recount(x, *self._pass(x), None)

    def _recount(self, x: np.ndarray, counts: np.ndarray, ok: np.ndarray,
                 level: Optional[int]) -> np.ndarray:
        """counts, with every threshold where some row is not ok recounted
        in FALLBACK_DPS-digit arithmetic by the same elimination."""
        redo = ~ok.all(axis=0)
        if not redo.any():
            return counts
        import mpmath   # only here: an eager import costs every run its memory and time
        self.fallbacks += int(np.count_nonzero(redo))
        xs = x[redo]
        with mpmath.workdps(FALLBACK_DPS):
            try:
                exact, ok = self._pass(np.array([mpmath.mpf(v) for v in xs.tolist()],
                                                dtype=object), level)
            except ZeroDivisionError:
                ok = np.zeros((1, xs.size), dtype=bool)
        if not ok.all():
            raise ThresholdAtEigenvalueError(
                f"threshold x = {float(xs[np.argmin(ok.all(axis=0))])} sits on an eigenvalue: "
                f"its {FALLBACK_DPS}-digit count meets an exactly zero pivot")
        counts[:, redo] = exact
        return counts


def _finite(p) -> np.ndarray:
    """Where p is neither infinite nor nan, for float and mpmath arrays alike."""
    return np.abs(p) < np.inf


def _neg(*pivots: np.ndarray) -> np.ndarray:
    """How many of the pivots are negative, per threshold, as an integer."""
    neg = (pivots[0] < 0.0).astype(np.int64)
    for p in pivots[1:]:
        neg += p < 0.0
    return neg


def _schur_inertia(w, sigma, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """neg(S) = [w < 0] + 2 [sigma < 0] of a D3-symmetric Schur complement,
    and ok where w and sigma are also nonzero."""
    return _neg(w) + 2 * _neg(sigma), ok & (w != 0.0) & (sigma != 0.0)


def _path(ck, row_sums: list, g):
    """Eliminate in order all but the last node of a path of conductances
    ck, whose nodes have the row sums row_sums in L - x M; g is the first
    node's conductance to an end outside the path (0.0 for none).  Returns
    the negative pivots (int64, of the broadcast shape; 0 for one node),
    that end's conductance g to the last node, and the last node's row sum
    r, which keeps its digits as it goes to zero with x.  This Sturm count
    stays exact next to the path's own eigenvalues, where a complement
    onto its ends cancels to noise.  A zero pivot leaves r infinite or nan.
    """
    r = row_sums[0]
    neg = np.zeros(np.broadcast(r, g, ck).shape, dtype=np.int64)
    for nxt in row_sums[1:]:
        piv = r + g + ck
        neg = neg + (piv < 0.0)
        r = nxt + ck * r / piv
        g = g * ck / piv
    return neg, g, r


# get_counter and eig_dense_cached are plain aliases of InertiaCounter and
# eig_dense; they stay only because perfbench's tracer looks both names up,
# until the benchmark refresh of ROADMAP item 5.
def get_counter(p: Pencil) -> InertiaCounter:
    return InertiaCounter(p)


def eig_dense_cached(p: Pencil, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    return eig_dense(p, dense_limit)


def count_below(p: Pencil, x: float) -> InertiaResult:
    """Sylvester inertia count #{lambda_k < x} for the pencil.

    To evaluate the right-continuous counting function N(x) = #{lambda <= x},
    call with x * (1 + EPS_SHIFT), as GraphCounts does.
    """
    return get_counter(p).count_below(x)
