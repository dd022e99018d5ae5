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

Euclidean coordinates (corner maps with contraction (1-alpha)/2) are
optional and used only for dumps; the analysis is purely combinatorial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AddressError, DomainError, LevelError
from .sequences import MatchingSequence, scale_factors

ALPHABET = "123"

# Unit equilateral triangle used when Euclidean coordinates are requested.
_P0 = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])


def enumerate_words(m: int) -> list[str]:
    """All 3**m words of length m in lexicographic order (m = 0 gives [""])."""
    if m < 0:
        raise DomainError(f"level must be >= 0, got {m}")
    return ["".join(t) for t in itertools.product(ALPHABET, repeat=m)]


def word_rank(word: str) -> int:
    """Lexicographic rank of a word among words of its length."""
    rank = 0
    for ch in word:
        if ch not in ALPHABET:
            raise AddressError(f"word {word!r} uses letter {ch!r} outside {{1,2,3}}")
        rank = 3 * rank + (int(ch) - 1)
    return rank


def _check_word(word: str):
    for ch in word:
        if ch not in ALPHABET:
            raise AddressError(f"word {word!r} uses letter {ch!r} outside {{1,2,3}}")


@dataclass(frozen=True)
class CornerTag:
    """Corner i of the m-cell addressed by ``word``."""
    word: str
    corner: int


@dataclass(frozen=True)
class LineTag:
    """Interior node ``pos`` (1..s-1) of the level-``level`` bridge e_edge^word."""
    level: int
    word: str
    edge: int
    pos: int


@dataclass(frozen=True)
class EdgeRec:
    u: int
    v: int
    resistance: float
    kind: str       # "cell" or "line"
    level: int      # m for cell edges, bridge level k for line segments


@dataclass(frozen=True)
class LinePath:
    """One logical bridge: its level, address, and the vertex path a -> b."""
    level: int
    word: str
    edge: int
    nodes: tuple            # endpoint corner id, interior ids..., endpoint corner id
    resistance: float       # total gamma_k of the bridge
    mass: float             # total lumped mass of the bridge


@dataclass(eq=False)
class GraphApprox:
    """The level-m weighted graph with lumped vertex masses."""

    m: int
    s: int
    beta: float
    alpha: Optional[float]
    seq: MatchingSequence
    delta: np.ndarray               # delta_0..delta_m
    gamma: np.ndarray               # gamma_1..gamma_m (empty for m = 0)
    tags: list
    edges: list
    line_paths: list
    mass_cell: np.ndarray           # cell-measure share per vertex
    mass_line: np.ndarray           # line-measure share per vertex
    line_level: np.ndarray          # level of the unique bridge at a corner (0 = none)
    coords: Optional[np.ndarray]

    @property
    def n_vertices(self) -> int:
        return len(self.tags)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

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

    def dump_text(self) -> str:
        """Deterministic line-oriented dump: one V record per vertex, one E per edge."""
        out = []
        for vid, tag in enumerate(self.tags):
            mass = self.mass_cell[vid] + self.mass_line[vid]
            if isinstance(tag, CornerTag):
                word = tag.word or "-"
                fields = ["V", str(vid), "corner", word, str(tag.corner), f"{mass:.17g}"]
            else:
                word = tag.word or "-"
                fields = ["V", str(vid), "line", word, f"{tag.edge}@{tag.pos}", f"{mass:.17g}"]
            if self.coords is not None:
                fields += [f"{self.coords[vid, 0]:.17g}", f"{self.coords[vid, 1]:.17g}"]
            out.append(" ".join(fields))
        for e in self.edges:
            out.append(f"E {e.u} {e.v} {e.resistance:.17g} {e.kind} {e.level}")
        return "\n".join(out) + "\n"


def cell_mass(m: int, beta: float) -> float:
    """Mass of one m-cell: the mean of its cell-counting and geometric weights."""
    return 0.5 * (3.0 ** (-m) + beta ** m)


def bridge_mass(k: int, beta: float) -> float:
    """Line-measure mass of one level-k bridge."""
    return 0.5 * (1.0 / 3.0 - beta) * beta ** (k - 1)


def _other_letters(i: int) -> tuple[int, int]:
    a, b = sorted({1, 2, 3} - {i})
    return a, b


def build_graph(
    seq: MatchingSequence,
    m: int,
    s: int,
    beta: float,
    alpha: Optional[float] = None,
) -> GraphApprox:
    """Construct the level-m graph with s-fold subdivided bridges.

    Vertex ids are deterministic: corner (w, i) gets id 3*rank(w) + i - 1,
    and interior line nodes follow in bridge enumeration order (by level,
    then address, then edge index).
    """
    if m < 0:
        raise DomainError(f"level must be >= 0, got {m}")
    if s < 1:
        raise DomainError(f"subdivisions must be >= 1, got {s}")
    if not (0.0 < beta < 1.0 / 3.0):
        raise DomainError(
            f"beta must lie in (0, 1/3) for the line measure to be finite, got {beta!r}"
        )
    if alpha is not None and not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")

    if m >= 1:
        sf = scale_factors(seq, m)
        delta = sf.delta
        gamma = sf.gamma
    else:
        delta = np.array([1.0])
        gamma = np.array([])

    words = enumerate_words(m)
    n_corners = 3 ** (m + 1)
    n_bridges = (3 ** (m + 1) - 3) // 2
    n = n_corners + (s - 1) * n_bridges

    tags: list = [None] * n
    mass_cell = np.zeros(n)
    mass_line = np.zeros(n)
    line_level = np.zeros(n, dtype=np.int64)
    edges: list = []
    line_paths: list = []

    corner_share = cell_mass(m, beta) / 3.0
    delta_m = float(delta[m])
    for rank, w in enumerate(words):
        base = 3 * rank
        for i in (1, 2, 3):
            tags[base + i - 1] = CornerTag(w, i)
            mass_cell[base + i - 1] = corner_share
        edges.append(EdgeRec(base, base + 1, delta_m, "cell", m))
        edges.append(EdgeRec(base, base + 2, delta_m, "cell", m))
        edges.append(EdgeRec(base + 1, base + 2, delta_m, "cell", m))

    next_id = n_corners
    for k in range(1, m + 1):
        gk = float(gamma[k - 1])
        seg_r = gk / s
        bm = bridge_mass(k, beta)
        for u in enumerate_words(k - 1):
            for i in (1, 2, 3):
                a, b = _other_letters(i)
                ra = u + str(a) + str(b) * (m - k)
                rb = u + str(b) + str(a) * (m - k)
                va = 3 * word_rank(ra) + (b - 1)
                vb = 3 * word_rank(rb) + (a - 1)
                path = [va]
                for pos in range(1, s):
                    tags[next_id] = LineTag(k, u, i, pos)
                    mass_line[next_id] = bm / s
                    path.append(next_id)
                    next_id += 1
                path.append(vb)
                mass_line[va] += bm / (2 * s)
                mass_line[vb] += bm / (2 * s)
                line_level[va] = k
                line_level[vb] = k
                for p in range(s):
                    edges.append(EdgeRec(path[p], path[p + 1], seg_r, "line", k))
                line_paths.append(
                    LinePath(k, u, i, tuple(path), gk, bm)
                )

    coords = None
    if alpha is not None:
        coords = np.zeros((n, 2))
        c = (1.0 - alpha) / 2.0
        for rank, w in enumerate(words):
            pts = _P0.copy()
            for ch in reversed(w):
                p = _P0[int(ch) - 1]
                pts = c * (pts - p) + p
            coords[3 * rank : 3 * rank + 3] = pts
        for lp in line_paths:
            pa = coords[lp.nodes[0]]
            pb = coords[lp.nodes[-1]]
            for j, vid in enumerate(lp.nodes[1:-1], start=1):
                t = j / s
                coords[vid] = (1.0 - t) * pa + t * pb

    return GraphApprox(
        m=m, s=s, beta=beta, alpha=alpha, seq=seq,
        delta=np.asarray(delta, dtype=float), gamma=np.asarray(gamma, dtype=float),
        tags=tags, edges=edges, line_paths=line_paths,
        mass_cell=mass_cell, mass_line=mass_line, line_level=line_level,
        coords=coords,
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


def vertex_set_v(g: GraphApprox, j: int) -> list[int]:
    """Vertex ids of V_j: all outer corners of the 3**j level-j blocks."""
    if not (0 <= j <= g.m):
        raise LevelError(f"level {j} outside 0..{g.m}")
    ids = []
    for w in enumerate_words(j):
        ids.extend(cell_corner_ids(g, w))
    return sorted(set(ids))
