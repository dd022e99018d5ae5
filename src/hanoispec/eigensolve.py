"""Generalized symmetric eigenproblems L u = lambda M u with diagonal mass.

Two backends:

* dense: reduce with the diagonal mass to the standard symmetric problem
  M^{-1/2} L M^{-1/2} and call LAPACK.  This is the oracle path and the
  only one that returns eigenvalues; it is capped by a size limit.

* inertia: for counting only.  Factor L - x M with SuperLU under a
  symmetric column ordering and no row interchanges; diag(U) is then the
  D of an LDL^T factorization, and by Sylvester's law of inertia its
  negative entries count the pencil eigenvalues strictly below x.  A
  factorization that is exactly singular, that had to interchange rows,
  or that has a pivot magnitude under 1e-12 * max|L| means x sits
  numerically on an eigenvalue; the threshold is then nudged up by
  10 * eps_shift relatively and the factorization retried.

The two backends are cross-validated against each other in the test
suite on every pencil family the package produces.

The CSC pattern of L and the positions of its diagonal are shared by
all thresholds x, so they are set up once per pencil and reused across a
whole counting grid.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import Pencil
from .errors import (
    AssemblyError,
    ConvergenceError,
    DomainError,
    PencilSizeError,
    ThresholdAtEigenvalueError,
)

DENSE_LIMIT = 4000
EPS_SHIFT = 1e-9
SMALL_PIVOT_REL = 1e-12


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Spectrum:
    """Sorted eigenvalues of a pencil with the residual of the worst pair."""

    eigenvalues: np.ndarray
    boundary: object
    residual_norm: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def count_leq(self, x: float, eps_shift: float = EPS_SHIFT) -> int:
        """Right-continuous count #{lambda <= x} via the upward relative shift."""
        return int(np.searchsorted(self.eigenvalues, x * (1.0 + eps_shift), side="left"))

    def multiplicities(self, rel_gap: float = 1e-8) -> list[tuple[float, int]]:
        """Cluster eigenvalues whose relative gap is below ``rel_gap``."""
        ev = self.eigenvalues
        if len(ev) == 0:
            return []
        scale = max(abs(float(ev[0])), abs(float(ev[-1])), 1e-300)
        groups = []
        start = 0
        for i in range(1, len(ev) + 1):
            if i == len(ev) or ev[i] - ev[i - 1] > rel_gap * max(abs(ev[i - 1]), scale * 1e-6):
                groups.append((float(np.mean(ev[start:i])), i - start))
                start = i
        return groups


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
    mass = p.mass
    if np.any(mass <= 0.0):
        raise AssemblyError("pencil mass must be strictly positive")
    d = 1.0 / np.sqrt(mass)
    A = p.L.toarray() * d[None, :] * d[:, None]
    A = 0.5 * (A + A.T)
    w, U = scipy.linalg.eigh(A)
    V = U * d[:, None]
    R = p.L.dot(V) - (mass[:, None] * V) * w[None, :]
    residual = float(np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0)))
    lam_max = max(abs(float(w[-1])), abs(float(w[0])), 1e-300)
    if residual > 1e-8 * lam_max:
        raise ConvergenceError(
            f"dense eigensolve residual {residual:.3e} exceeds 1e-8 * lambda_max"
        )
    return Spectrum(np.sort(w), p.boundary, residual)


def eig_lowest(p: Pencil, k: int, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    """The k smallest eigenvalues, by shift-invert iteration or dense fallback."""
    if not (1 <= k <= p.n):
        raise DomainError(f"k must lie in 1..{p.n}, got {k}")
    # ARPACK needs k well below n and is not worth starting on small pencils
    if p.n <= 300 or k > p.n - 2 or k > p.n // 3:
        full = eig_dense(p, dense_limit=max(dense_limit, p.n))
        return Spectrum(full.eigenvalues[:k], p.boundary, full.residual_norm)
    bound = lambda_max_bound(p)
    sigma = -1e-6 * bound
    M = sp.diags(p.mass).tocsc()
    v0 = np.full(p.n, 1.0 / np.sqrt(p.n))
    try:
        w, V = spla.eigsh(
            p.L.tocsc(), k=k, M=M, sigma=sigma, which="LM", v0=v0, maxiter=5000
        )
    except spla.ArpackNoConvergence as exc:
        if p.n <= dense_limit:
            full = eig_dense(p, dense_limit)
            return Spectrum(full.eigenvalues[:k], p.boundary, full.residual_norm)
        raise ConvergenceError(f"shift-invert iteration failed to converge: {exc}")
    order = np.argsort(w)
    w, V = w[order], V[:, order]
    R = p.L.dot(V) - (p.mass[:, None] * V) * w[None, :]
    residual = float(np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0)))
    lam_ref = max(abs(float(w[-1])), 1e-12 * bound)
    if residual > 1e-7 * lam_ref:
        if p.n <= dense_limit:
            full = eig_dense(p, dense_limit)
            return Spectrum(full.eigenvalues[:k], p.boundary, full.residual_norm)
        raise ConvergenceError(
            f"shift-invert residual {residual:.3e} exceeds 1e-7 * lambda_{k}"
        )
    return Spectrum(w, p.boundary, residual)


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

    def __init__(self, pencil: Pencil, small_pivot_rel: float = SMALL_PIVOT_REL):
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
        self.pivot_tol = small_pivot_rel * float(np.max(np.abs(pencil.L.data)))
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

    def count_below(self, x: float, eps_shift: float = EPS_SHIFT,
                    retries: int = 3) -> InertiaResult:
        """Count eigenvalues strictly below x, nudging x off near-singular shifts."""
        xt = x
        for attempt in range(retries + 1):
            count, ok = self.try_count(xt)
            if ok:
                return InertiaResult(xt, count, attempt == 0)
            xt = xt * (1.0 + 10.0 * eps_shift)
        raise ThresholdAtEigenvalueError(
            f"threshold {x!r} sits on an eigenvalue: {retries} retries with relative "
            f"shift {10 * eps_shift:g} all hit a singular or row-interchanged factorization "
            f"or a pivot below {self.pivot_tol:.3e}"
        )


_counter_cache: "weakref.WeakKeyDictionary[Pencil, InertiaCounter]" = (
    weakref.WeakKeyDictionary()
)
_spectrum_cache: "weakref.WeakKeyDictionary[Pencil, Spectrum]" = (
    weakref.WeakKeyDictionary()
)


def get_counter(p: Pencil) -> InertiaCounter:
    counter = _counter_cache.get(p)
    if counter is None:
        counter = InertiaCounter(p)
        _counter_cache[p] = counter
    return counter


def eig_dense_cached(p: Pencil, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    """eig_dense with one cached spectrum per pencil (keyed by identity)."""
    spec = _spectrum_cache.get(p)
    if spec is None:
        spec = eig_dense(p, dense_limit)
        _spectrum_cache[p] = spec
    return spec


def count_below(p: Pencil, x: float, eps_shift: float = EPS_SHIFT) -> InertiaResult:
    """Sylvester inertia count #{lambda_k < x} for the pencil.

    To evaluate the right-continuous counting function N(x) = #{lambda <= x},
    call with x * (1 + eps_shift), as counting_function does.
    """
    return get_counter(p).count_below(x, eps_shift=eps_shift)
