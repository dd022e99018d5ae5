"""Level-m graph approximations of the Hanoi attractor.

Vertices are addressed by words over the alphabet {1, 2, 3}.  A word w of
length m names the m-cell obtained by composing the three corner
contractions in the order of its letters; the cell carries three corner
vertices.  Distinct cells never share vertices: the three first-level
copies of the attractor are separated by gaps, which are bridged by line
segments.  The bridge opposite corner i at refinement level k joins
corner b of the cell block w*a to corner a of the block w*b, where
{a, b} = {1, 2, 3} \\ {i} and w runs over all words of length k-1.  In a
level-m graph the block corner "corner b of block w*a" is the corner b of
the extreme cell w*a*b...b (letter b repeated down to length m).

Every triangle side of an m-cell carries resistance delta_m; a level-k
bridge carries total resistance gamma_k, realized as s equal segments in
series through s-1 interior line nodes.

Masses implement the half/half mixture of the cell-counting measure and
the geometrically weighted line measure: every m-cell receives
(3**-m + beta**m)/2 split equally over its three corners, and every
level-k bridge receives (1/3 - beta)*beta**(k-1)/2, lumped trapezoidally
along its path (interior nodes take 1/s of the bridge mass, each endpoint
corner takes 1/(2s)).  The total is exactly 1 at every level.

The graph is a set of arrays, and the arrays are its only representation.
Edges come in one fixed order: first the three sides (3r, 3r+1),
(3r, 3r+2), (3r+1, 3r+2) of every m-cell of rank r, then the s segments
of every bridge, bridges ordered by level, then address w, then edge
index i, each path walked from its end in block w*a to its end in block
w*b.  ``edge_u``, ``edge_v``, ``edge_r`` and ``edge_level`` hold the
edges in that order and ``bridge_paths`` the vertex path of every bridge.
The graph is purely combinatorial: no planar embedding enters it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AddressError, DomainError, LevelError
from .sequences import MatchingSequence, scale_factors

ALPHABET = "123"

# The letters a < b other than the edge index i = 1, 2, 3, less one.
_A = np.array([1, 0, 0])
_B = np.array([2, 2, 1])


def enumerate_words(m: int) -> list[str]:
    """All 3**m words of length m in lexicographic order (m = 0 gives [""])."""
    if m < 0:
        raise DomainError(f"level must be >= 0, got {m}")
    return ["".join(t) for t in itertools.product(ALPHABET, repeat=m)]


def word_rank(word: str) -> int:
    """Lexicographic rank of a word among words of its length."""
    _check_word(word)
    rank = 0
    for ch in word:
        rank = 3 * rank + (int(ch) - 1)
    return rank


def _check_word(word: str):
    for ch in word:
        if ch not in ALPHABET:
            raise AddressError(f"word {word!r} uses letter {ch!r} outside {{1,2,3}}")


@dataclass(eq=False)
class GraphApprox:
    """The level-m weighted graph with lumped vertex masses.

    Edges are held in the module's edge order: the first ``n_cell_edges``
    are the cell sides, the rest the bridge segments.
    """

    m: int
    s: int
    beta: float
    seq: MatchingSequence
    delta: np.ndarray               # delta_0..delta_m
    gamma: np.ndarray               # gamma_1..gamma_m (empty for m = 0)
    edge_u: np.ndarray              # first vertex of every edge
    edge_v: np.ndarray              # second vertex of every edge
    edge_r: np.ndarray              # resistance of every edge
    edge_level: np.ndarray          # m for cell edges, bridge level k for line segments
    bridge_paths: np.ndarray        # (n_bridges, s + 1) vertex path of every bridge
    mass_cell: np.ndarray           # cell-measure share per vertex
    mass_line: np.ndarray           # line-measure share per vertex
    line_level: np.ndarray          # level of the unique bridge at a corner (0 = none)

    @property
    def n_vertices(self) -> int:
        return self.mass_cell.size

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    @property
    def n_cell_edges(self) -> int:
        return 3 ** (self.m + 1)

    @property
    def masses(self) -> np.ndarray:
        return self.mass_cell + self.mass_line

    def corner_id(self, word: str, corner: int) -> int:
        """Vertex id of corner ``corner`` of the m-cell ``word``."""
        _check_word(word)
        if len(word) != self.m:
            raise AddressError(
                f"cell word must have length {self.m}, got {word!r}"
            )
        if corner not in (1, 2, 3):
            raise AddressError(f"corner index must be 1, 2 or 3, got {corner}")
        return 3 * word_rank(word) + corner - 1


def cell_mass(m: int, beta: float) -> float:
    """Mass of one m-cell: the mean of its cell-counting and geometric weights."""
    return 0.5 * (3.0 ** (-m) + beta ** m)


def bridge_mass(k: int, beta: float) -> float:
    """Line-measure mass of one level-k bridge."""
    return 0.5 * (1.0 / 3.0 - beta) * beta ** (k - 1)


def _block_corners(m: int, j: int) -> np.ndarray:
    """(3**j, 3) vertex ids: row rank(w), column i - 1 is corner i of block w.

    Corner i of block w is corner i of the cell w*i*...*i of rank
    rank(w)*3**(m-j) + (i-1)*(3**(m-j) - 1)/2.
    """
    t = 3 ** (m - j)
    i = np.arange(3)
    return 3 * (t * np.arange(3 ** j)[:, None] + i * ((t - 1) // 2)) + i


def check_graph_args(m: int, s: int, beta: float):
    """Raise DomainError unless the level, subdivisions and beta make a graph."""
    if m < 0:
        raise DomainError(f"level must be >= 0, got {m}")
    if s < 1:
        raise DomainError(f"subdivisions must be >= 1, got {s}")
    if not (0.0 < beta < 1.0 / 3.0):
        raise DomainError(
            f"beta must lie in (0, 1/3) for the line measure to be finite, got {beta!r}"
        )


def vertex_count(m: int, s: int) -> int:
    """Vertices of the level-m graph: 3^(m+1) corners and s - 1 interior
    nodes on each of its (3^(m+1) - 3) / 2 bridges."""
    return 3 ** (m + 1) + (s - 1) * (3 ** (m + 1) - 3) // 2


def level_scales(seq: MatchingSequence, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(delta_0..delta_m, gamma_1..gamma_m); the level-0 triangle has
    delta_0 = 1 and no bridges."""
    if m == 0:
        return np.array([1.0]), np.array([])
    sf = scale_factors(seq, m)
    return sf.delta, sf.gamma


def build_graph(
    seq: MatchingSequence,
    m: int,
    s: int,
    beta: float,
) -> GraphApprox:
    """Construct the level-m graph with s-fold subdivided bridges.

    Vertex ids are deterministic: corner (w, i) gets id 3*rank(w) + i - 1,
    and interior line nodes follow in bridge enumeration order (by level,
    then address, then edge index), s - 1 per bridge.

    The bridge ends come in closed form, vectorised over all words u and
    edges i of a level k: with {a, b} = {1, 2, 3} \\ {i}, the bridge joins
    corner b of the cell u*a*b^(m-k) to corner a of the cell u*b*a^(m-k),
    and the rank of u*a*b^(m-k) is

        rank(u)*3**(m-k+1) + (a-1)*3**(m-k) + (b-1)*(3**(m-k) - 1)/2.
    """
    check_graph_args(m, s, beta)
    delta, gamma = level_scales(seq, m)

    n_corners = 3 ** (m + 1)
    n_bridges = (3 ** (m + 1) - 3) // 2
    n = vertex_count(m, s)

    mass_cell = np.zeros(n)
    mass_cell[:n_corners] = cell_mass(m, beta) / 3.0
    mass_line = np.zeros(n)
    line_level = np.zeros(n, dtype=np.int64)

    paths = np.empty((n_bridges, s + 1), dtype=np.int64)
    paths[:, 1:s] = n_corners + np.arange(n_bridges * (s - 1)).reshape(n_bridges, s - 1)
    seg_r = np.empty(n_bridges)
    bridge_level = np.empty(n_bridges, dtype=np.int64)
    start = 0
    for k in range(1, m + 1):
        stop = start + 3 ** k
        # corners[u, a - 1, c - 1] is corner c of the level-k block u*a
        corners = _block_corners(m, k).reshape(-1, 3, 3)
        paths[start:stop, 0] = corners[:, _A, _B].ravel()
        paths[start:stop, s] = corners[:, _B, _A].ravel()
        bm = bridge_mass(k, beta)
        mass_line[paths[start:stop, 1:s]] = bm / s
        ends = paths[start:stop][:, [0, s]]
        # a corner ends at most one bridge, so this sets its whole line share
        mass_line[ends] = bm / (2 * s)
        line_level[ends] = k
        seg_r[start:stop] = float(gamma[k - 1]) / s
        bridge_level[start:stop] = k
        start = stop

    cells = 3 * np.arange(3 ** m)
    edge_u = np.concatenate([np.stack([cells, cells, cells + 1], axis=1).ravel(),
                             paths[:, :s].ravel()])
    edge_v = np.concatenate([np.stack([cells + 1, cells + 2, cells + 2], axis=1).ravel(),
                             paths[:, 1:].ravel()])
    edge_r = np.concatenate([np.full(n_corners, float(delta[m])), np.repeat(seg_r, s)])
    edge_level = np.concatenate([np.full(n_corners, m, dtype=np.int64),
                                 np.repeat(bridge_level, s)])

    return GraphApprox(
        m=m, s=s, beta=beta, seq=seq,
        delta=delta, gamma=gamma,
        edge_u=edge_u, edge_v=edge_v, edge_r=edge_r, edge_level=edge_level,
        bridge_paths=paths,
        mass_cell=mass_cell, mass_line=mass_line, line_level=line_level,
    )


def cell_corner_ids(g: GraphApprox, word: str) -> tuple[int, int, int]:
    """The three outer-corner vertex ids of the level-|word| block ``word``.

    For |word| = m these are the corners of the cell itself; for shorter
    words, corner i of the block is corner i of the extreme sub-cell
    word + i*(m - |word|) (the corner maps fix their own corner point).
    """
    _check_word(word)
    j = len(word)
    if j > g.m:
        raise LevelError(f"block word length {j} exceeds graph level {g.m}")
    return tuple(
        3 * word_rank(word + str(i) * (g.m - j)) + (i - 1) for i in (1, 2, 3)
    )


def block_corner_ids(g: GraphApprox, j: int) -> np.ndarray:
    """The (3**j, 3) outer-corner vertex ids of all level-j blocks.

    Row r holds ``cell_corner_ids(g, w)`` for the word w of rank r.
    """
    if not (0 <= j <= g.m):
        raise LevelError(f"level {j} outside 0..{g.m}")
    return _block_corners(g.m, j)


def vertex_set_v(g: GraphApprox, j: int) -> np.ndarray:
    """Sorted vertex ids of V_j: all outer corners of the 3**j level-j blocks."""
    return np.sort(block_corner_ids(g, j), axis=None)
