"""Stiffness/mass pencils for the graph approximations.

The stiffness matrix is the conductance Laplacian
L = sum over edges of (1/resistance) (e_u - e_v)(e_u - e_v)^T and the
mass matrix is the diagonal of lumped vertex masses, so the generalized
eigenproblem L u = lambda M u discretizes the quadratic form paired with
the measure.  Dirichlet conditions are imposed by deleting rows and
columns, which is the exact form restriction.

``assemble_decoupled`` produces the two bracketing families used by the
counting-function sandwich, both by cutting the graph and splitting it
into connected components: cutting every bridge of level <= j off the
block corners it joins (free "Neumann" split, which enlarges the form
domain and can only raise counting functions), or grounding all of V_j
(restriction, which can only lower them).  The counting code takes the
sums over these components from block elimination of the whole graph;
the component pencils are its independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError, EmptyPencilError, LevelError
from .geometry import GraphApprox, vertex_set_v


@dataclass(frozen=True)
class Boundary:
    """Boundary-condition tag carried by a pencil."""
    kind: str                       # neumann | dirichlet_v0 | dirichlet_vm |
                                    # neumann_split | dirichlet_split
    level: Optional[int] = None     # constraint/decouple level where applicable
    component: Optional[str] = None # component label for decoupled pencils

    def describe(self) -> str:
        out = self.kind
        if self.level is not None:
            out += f"(j={self.level})"
        if self.component is not None:
            out += f"[{self.component}]"
        return out


@dataclass(eq=False)
class Pencil:
    """Symmetric stiffness matrix L with diagonal mass vector."""

    L: sp.csr_matrix
    mass: np.ndarray
    boundary: Boundary
    vertex_map: np.ndarray          # pencil index -> graph vertex id

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def scaled(self, c: float) -> "Pencil":
        """Same stiffness with mass multiplied by c (eigenvalues scale by 1/c)."""
        return Pencil(self.L, c * self.mass, self.boundary, self.vertex_map)

    def dump_coordinate(self) -> tuple[str, str]:
        """(matrix, mass) texts: symmetric ``row col value`` triplets in row
        order plus one mass value per line, for cross-checks with external
        tools."""
        coo = self.L.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = [
            f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}"
            for i in order
        ]
        mass_lines = [f"{v:.17g}" for v in self.mass]
        return "\n".join(lines) + "\n", "\n".join(mass_lines) + "\n"


def _laplacian_from_edges(u: np.ndarray, v: np.ndarray, r: np.ndarray, n: int) -> sp.csr_matrix:
    """Conductance Laplacian of the edges (u[e], v[e]) with resistances r[e].

    Edge after edge, the COO triplets are (u,u), (v,v), (u,v), (v,u).
    """
    bad = ~(np.isfinite(r) & (r > 0.0))
    if bad.any():
        e = int(np.argmax(bad))
        raise AssemblyError(
            f"edge ({u[e]},{v[e]}) has resistance {float(r[e])!r}; "
            "it must be finite and positive"
        )
    c = 1.0 / r
    rows = np.stack([u, v, u, v], axis=1).ravel()
    cols = np.stack([u, v, v, u], axis=1).ravel()
    vals = np.stack([c, c, -c, -c], axis=1).ravel()
    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    L.sum_duplicates()
    L.sort_indices()
    return L


def assemble_neumann(g: GraphApprox) -> Pencil:
    """Full conductance Laplacian with the lumped masses (free boundary)."""
    n = g.n_vertices
    L = _laplacian_from_edges(g.edge_u, g.edge_v, g.edge_r, n)
    mass = g.masses
    if np.any(mass <= 0.0):
        raise AssemblyError("every vertex must carry positive mass")
    return Pencil(L, mass, Boundary("neumann"), np.arange(n))


def _restrict(p: Pencil, keep: np.ndarray, boundary: Boundary) -> Pencil:
    if keep.size == 0:
        raise EmptyPencilError(
            f"boundary condition {boundary.describe()} constrains every vertex"
        )
    L = p.L[keep][:, keep].tocsr()
    L.sort_indices()
    return Pencil(L, p.mass[keep], boundary, p.vertex_map[keep])


def apply_dirichlet(p: Pencil, g: GraphApprox, where: str, level: Optional[int] = None) -> Pencil:
    """Zero conditions on V_0 (``where="v0"``) or on V_j union V_0 (``where="vm"``).

    Rows and columns of constrained vertices are deleted.  The result may
    decouple into several components; that is intended for the bracketing
    construction.
    """
    if where == "v0":
        constrained = vertex_set_v(g, 0)
        boundary = Boundary("dirichlet_v0")
    elif where == "vm":
        if level is None:
            raise LevelError("where='vm' needs a level")
        constrained = np.concatenate([vertex_set_v(g, level), vertex_set_v(g, 0)])
        boundary = Boundary("dirichlet_vm", level=level)
    else:
        raise LevelError(f"unknown constraint set {where!r}")
    keep = np.flatnonzero(~np.isin(p.vertex_map, constrained))
    return _restrict(p, keep, boundary)


def _components(p: Pencil, boundary: Boundary) -> list[Pencil]:
    """One pencil per connected component of p, labelled ``component:{c}``.

    Components are numbered by their lowest pencil index and keep the
    index order of p.
    """
    ncomp, labels = connected_components(p.L, directed=False)
    return [
        _restrict(p, np.flatnonzero(labels == c), replace(boundary, component=f"component:{c}"))
        for c in range(ncomp)
    ]


def assemble_decoupled(g: GraphApprox, j: int, kind: str) -> list[Pencil]:
    """Component pencils of the level-j decoupled forms.

    Both forms cut the graph and split it into connected components, one
    pencil per component, labelled ``component:{c}`` in the order of
    their lowest vertex.

    ``kind="neumann_split"``: every bridge of level <= j is cut off the
    two block corners it joins.  Its two ends become new vertices that
    map to those corners and carry the bridge's end share of the line
    mass; the corners keep their cell share.  The components are the
    3**j level-j blocks (with their bridges of level > j) and one
    free-free path per cut bridge.  Enlarging the form domain can only
    raise counting functions.  Total mass is conserved, and j = 0 gives
    the full graph.

    ``kind="dirichlet_split"``: the full Laplacian with V_j (which
    contains V_0) grounded.  Restricting the form can only lower counting
    functions.  Components with no remaining vertex (single cells at
    j = m, bridges at s = 1) are dropped; grounding every vertex gives [].
    """
    if not (0 <= j <= g.m):
        raise LevelError(f"decouple level {j} outside 0..{g.m}")

    if kind == "neumann_split":
        n = g.n_vertices
        cut = (g.line_level > 0) & (g.line_level <= j)
        ends = np.flatnonzero(cut)
        # a corner ends at most one bridge: a line edge at a cut corner is that
        # bridge's end segment, and the corner's line share is its end share
        relink = np.arange(n)
        relink[ends] = n + np.arange(ends.size)
        u, v = g.edge_u.copy(), g.edge_v.copy()
        line = slice(g.n_cell_edges, None)
        u[line], v[line] = relink[u[line]], relink[v[line]]
        L = _laplacian_from_edges(u, v, g.edge_r, n + ends.size)
        mass = np.concatenate([g.mass_cell + np.where(cut, 0.0, g.mass_line),
                               g.mass_line[ends]])
        vertex_map = np.concatenate([np.arange(n), ends])
        boundary = Boundary("neumann_split", j)
        return _components(Pencil(L, mass, boundary, vertex_map), boundary)

    if kind == "dirichlet_split":
        try:
            grounded = apply_dirichlet(assemble_neumann(g), g, "vm", level=j)
        except EmptyPencilError:
            return []
        return _components(grounded, Boundary("dirichlet_split", j))

    raise LevelError(f"unknown decoupling kind {kind!r}")
