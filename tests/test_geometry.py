"""Graph construction: counts, masses, addressing, determinism."""

from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hanoispec import geometry
from hanoispec.assembly import Pencil, _components, assemble_decoupled, assemble_neumann
from hanoispec.errors import AddressError, DomainError, LevelError, PencilSizeError
from hanoispec.geometry import (
    block_corner_ids,
    bridge_mass,
    build_graph,
    cell_corner_ids,
    cell_mass,
    enumerate_words,
    vertex_set_v,
    word_rank,
)
from hanoispec.sequences import constant, explicit, geometric_to_limit, scale_factors

SEQ = constant(0.5)


class TestWords:
    def test_level_zero(self):
        assert enumerate_words(0) == [""]

    def test_level_one(self):
        assert enumerate_words(1) == ["1", "2", "3"]

    def test_level_two(self):
        words = enumerate_words(2)
        assert len(words) == 9
        assert words[0] == "11"
        assert words[-1] == "33"
        assert words == sorted(words)

    def test_rank_roundtrip(self):
        for i, w in enumerate(enumerate_words(3)):
            assert word_rank(w) == i

    def test_bad_letter(self):
        with pytest.raises(AddressError):
            word_rank("14")


class TestCounts:
    @pytest.mark.parametrize("m", range(0, 7))
    @pytest.mark.parametrize("s", range(1, 5))
    def test_vertex_edge_formulas(self, m, s):
        g = build_graph(SEQ, m, s, 0.25)
        assert g.n_vertices == 3 ** (m + 1) + (s - 1) * (3 ** (m + 1) - 3) // 2
        assert g.n_edges == 3 ** (m + 1) + s * (3 ** (m + 1) - 3) // 2

    def test_m2_s2_example(self):
        g = build_graph(SEQ, 2, 2, 0.25)
        assert g.n_vertices == 39
        assert g.n_edges == 51

    def test_m0_unit_triangle(self):
        g = build_graph(SEQ, 0, 1, 0.25)
        assert g.n_vertices == 3
        assert g.n_edges == 3
        assert np.all(g.edge_r == 1.0)
        assert np.allclose(g.masses, 1.0 / 3.0)

    def test_past_physical_memory_raises_unallocated(self, monkeypatch):
        # level 20 (1.6e10 vertices) would take about 1.6 TiB: the closed-form
        # counts are checked against the host's memory before any array exists
        def no_array(*args, **kwargs):
            raise AssertionError("build_graph allocated an array")

        monkeypatch.setattr(np, "zeros", no_array)
        monkeypatch.setattr(np, "empty", no_array)
        with pytest.raises(PencilSizeError, match="15690529803 vertices"):
            build_graph(SEQ, 20, 2, 0.25)

    @pytest.mark.parametrize("spare,fits", [(0, True), (-1, False)])
    def test_memory_bound_is_48_bytes_per_vertex_and_edge(self, monkeypatch, spare, fits):
        # level 2, s = 2: 39 vertices and 51 edges take 48 * 90 bytes
        pages = {"SC_PHYS_PAGES": 48 * 90 + spare, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(geometry.os, "sysconf", pages.__getitem__)
        if fits:
            assert build_graph(SEQ, 2, 2, 0.25).n_vertices == 39
        else:
            with pytest.raises(PencilSizeError):
                build_graph(SEQ, 2, 2, 0.25)

    @pytest.mark.parametrize("m,s", [(0, 1), (1, 1), (2, 2), (3, 1), (4, 2)])
    def test_connected(self, m, s):
        g = build_graph(SEQ, m, s, 0.25)
        p = assemble_neumann(g)
        ncomp, _ = connected_components(p.L, directed=False)
        assert ncomp == 1


class TestResistancesAndMasses:
    def test_m1_s1_example(self):
        g = build_graph(SEQ, 1, 1, 0.25)
        cell, line = g.edge_r[:g.n_cell_edges], g.edge_r[g.n_cell_edges:]
        assert len(cell) == 9 and len(line) == 3
        np.testing.assert_allclose(cell, 0.5)
        np.testing.assert_allclose(line, 1.0 / 6.0, rtol=1e-14)
        # each cell mass (1/3 + 1/4)/2 = 7/24, each bridge mass 1/24
        for w in enumerate_words(1):
            ids = [g.corner_id(w, i) for i in (1, 2, 3)]
            assert g.mass_cell[ids].sum() == pytest.approx(7.0 / 24.0, rel=1e-14)
        np.testing.assert_allclose(g.mass_line[g.bridge_paths].sum(axis=1), 1.0 / 24.0,
                                   rtol=1e-14)
        assert g.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_every_level_resistance(self):
        g = build_graph(SEQ, 3, 2, 0.25)
        nc = g.n_cell_edges
        np.testing.assert_allclose(g.edge_r[:nc], float(g.delta[3]), rtol=1e-14)
        np.testing.assert_allclose(g.edge_r[nc:], g.gamma[g.edge_level[nc:] - 1] / g.s,
                                   rtol=1e-14)

    @pytest.mark.parametrize("beta", [0.05, 0.25, 0.33])
    @pytest.mark.parametrize("m,s", [(2, 1), (3, 2), (4, 1)])
    def test_mass_conservation(self, beta, m, s):
        g = build_graph(SEQ, m, s, beta)
        assert g.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_per_cell_mass(self):
        g = build_graph(SEQ, 3, 2, 0.25)
        mu = 0.5 * (3.0 ** -3 + 0.25 ** 3)
        for w in enumerate_words(3):
            ids = [g.corner_id(w, i) for i in (1, 2, 3)]
            assert g.mass_cell[ids].sum() == pytest.approx(mu, rel=1e-13)

    def test_block_aggregate_mass(self):
        # cells plus interior bridges of block w must carry (3^-j + beta^j)/2
        beta = 0.25
        g = build_graph(SEQ, 4, 2, beta)
        # a bridge's level is that of its segments; its cells are its ends' cells
        levels = g.edge_level[g.n_cell_edges::g.s]
        end_cells = g.bridge_paths[:, [0, -1]] // 3
        for j in (1, 2, 3):
            for w in enumerate_words(j)[:4]:
                total = 0.0
                for cw in enumerate_words(4):
                    if cw.startswith(w):
                        ids = [g.corner_id(cw, i) for i in (1, 2, 3)]
                        total += float(g.mass_cell[ids].sum())
                # the bridges inside block w are those with both ends in its cells
                lo = word_rank(w) * 3 ** (4 - j)
                inside = ((lo <= end_cells) & (end_cells < lo + 3 ** (4 - j))).all(axis=1)
                total += sum(bridge_mass(k, beta) for k in levels[inside].tolist())
                assert total == pytest.approx(0.5 * (3.0 ** -j + beta ** j), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.05, 0.25, 0.33])
    def test_measure_bounds_all_levels(self, beta):
        for j in range(0, 7):
            mu = 0.5 * (3.0 ** -j + beta ** j)
            assert beta ** j <= mu * (1 + 1e-15)
            assert mu <= 3.0 ** -j * (1 + 1e-15)

    def test_beta_domain_error(self):
        with pytest.raises(DomainError) as exc:
            build_graph(SEQ, 1, 1, 0.4)
        assert "(0, 1/3)" in str(exc.value)
        with pytest.raises(DomainError):
            build_graph(SEQ, 1, 1, 1.0 / 3.0)


class TestAddressing:
    def test_cell_corner_ids_full_length(self):
        g = build_graph(SEQ, 1, 1, 0.25)
        ids = cell_corner_ids(g, "2")
        assert ids == (g.corner_id("2", 1), g.corner_id("2", 2), g.corner_id("2", 3))

    def test_block_corners_level_one_of_two(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        ids = cell_corner_ids(g, "1")
        assert ids == (
            g.corner_id("11", 1),
            g.corner_id("12", 2),
            g.corner_id("13", 3),
        )

    def test_v0_corners(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        ids = cell_corner_ids(g, "")
        assert ids == (
            g.corner_id("11", 1),
            g.corner_id("22", 2),
            g.corner_id("33", 3),
        )

    def test_bad_word(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        with pytest.raises(AddressError):
            cell_corner_ids(g, "4")

    @pytest.mark.parametrize("m", range(0, 5))
    def test_block_corner_ids_match_cell_corner_ids(self, m):
        g = build_graph(SEQ, m, 2, 0.25)
        for j in range(m + 1):
            words = enumerate_words(j)
            expect = [cell_corner_ids(g, w) for w in words]
            assert block_corner_ids(g, j).tolist() == [list(ids) for ids in expect]
            assert vertex_set_v(g, j).tolist() == sorted({v for ids in expect for v in ids})

    def test_block_corner_ids_level_range(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        for j in (-1, 3):
            with pytest.raises(LevelError):
                block_corner_ids(g, j)


GOLDEN_M1_S2 = """\
V 0 corner 1 1 0.09722222222222221
V 1 corner 1 2 0.10763888888888887
V 2 corner 1 3 0.10763888888888887
V 3 corner 2 1 0.10763888888888887
V 4 corner 2 2 0.09722222222222221
V 5 corner 2 3 0.10763888888888887
V 6 corner 3 1 0.10763888888888887
V 7 corner 3 2 0.10763888888888887
V 8 corner 3 3 0.09722222222222221
V 9 line - 1@1 0.020833333333333329
V 10 line - 2@1 0.020833333333333329
V 11 line - 3@1 0.020833333333333329
E 0 1 0.5 cell 1
E 0 2 0.5 cell 1
E 1 2 0.5 cell 1
E 3 4 0.5 cell 1
E 3 5 0.5 cell 1
E 4 5 0.5 cell 1
E 6 7 0.5 cell 1
E 6 8 0.5 cell 1
E 7 8 0.5 cell 1
E 5 9 0.083333333333333315 line 1
E 9 7 0.083333333333333315 line 1
E 2 10 0.083333333333333315 line 1
E 10 6 0.083333333333333315 line 1
E 1 11 0.083333333333333315 line 1
E 11 3 0.083333333333333315 line 1
"""


def _dump(tags, masses, edges) -> str:
    """One V line per vertex (id, address, mass), one E line per edge
    (ends, resistance, kind, level)."""
    out = [f"V {v} {tag} {mass:.17g}" for v, (tag, mass) in enumerate(zip(tags, masses))]
    out += ["E {} {} {:.17g} {} {}".format(*e) for e in edges]
    return "\n".join(out) + "\n"


def _graph_dump(g) -> str:
    """The dump of a graph's arrays, its vertices named by the id convention:
    corners by cell rank, then s - 1 interior nodes per bridge in bridge order."""
    tags = [f"corner {w or '-'} {i}" for w in enumerate_words(g.m) for i in (1, 2, 3)]
    tags += [f"line {w or '-'} {i}@{pos}" for k in range(1, g.m + 1)
             for w in enumerate_words(k - 1) for i in (1, 2, 3) for pos in range(1, g.s)]
    kinds = ["cell"] * g.n_cell_edges + ["line"] * (g.n_edges - g.n_cell_edges)
    edges = zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_r.tolist(), kinds,
                g.edge_level.tolist())
    return _dump(tags, g.masses.tolist(), edges)


class TestDeterminism:
    def test_golden_dump(self):
        assert _graph_dump(build_graph(SEQ, 1, 2, 0.25)) == GOLDEN_M1_S2
        assert _loop_dump(_loop_build(SEQ, 1, 2, 0.25)) == GOLDEN_M1_S2

    def test_rebuild_identical(self):
        a = build_graph(SEQ, 3, 2, 0.25)
        b = build_graph(SEQ, 3, 2, 0.25)
        for name in ("edge_u", "edge_v", "edge_r", "edge_level", "bridge_paths",
                     "mass_cell", "mass_line", "line_level"):
            _same(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# Reference: the per-object loop construction that the arrays replaced
# ---------------------------------------------------------------------------

_Corner = namedtuple("_Corner", "word corner")
_Line = namedtuple("_Line", "level word edge pos")
_Edge = namedtuple("_Edge", "u v resistance kind level")
_Path = namedtuple("_Path", "level word edge nodes resistance mass")


def _loop_build(seq, m, s, beta):
    """The level-m graph built one object per vertex, edge and bridge, each
    bridge end found by ranking its cell word."""
    if m >= 1:
        sf = scale_factors(seq, m)
        delta, gamma = sf.delta, sf.gamma
    else:
        delta, gamma = np.array([1.0]), np.array([])
    words = enumerate_words(m)
    n_corners = 3 ** (m + 1)
    n = n_corners + (s - 1) * (3 ** (m + 1) - 3) // 2
    tags = [None] * n
    mass_cell = np.zeros(n)
    mass_line = np.zeros(n)
    line_level = np.zeros(n, dtype=np.int64)
    edges, line_paths = [], []

    corner_share = cell_mass(m, beta) / 3.0
    delta_m = float(delta[m])
    for rank, w in enumerate(words):
        base = 3 * rank
        for i in (1, 2, 3):
            tags[base + i - 1] = _Corner(w, i)
            mass_cell[base + i - 1] = corner_share
        edges.append(_Edge(base, base + 1, delta_m, "cell", m))
        edges.append(_Edge(base, base + 2, delta_m, "cell", m))
        edges.append(_Edge(base + 1, base + 2, delta_m, "cell", m))

    next_id = n_corners
    for k in range(1, m + 1):
        gk = float(gamma[k - 1])
        seg_r = gk / s
        bm = bridge_mass(k, beta)
        for u in enumerate_words(k - 1):
            for i in (1, 2, 3):
                a, b = sorted({1, 2, 3} - {i})
                va = 3 * word_rank(u + str(a) + str(b) * (m - k)) + (b - 1)
                vb = 3 * word_rank(u + str(b) + str(a) * (m - k)) + (a - 1)
                path = [va]
                for pos in range(1, s):
                    tags[next_id] = _Line(k, u, i, pos)
                    mass_line[next_id] = bm / s
                    path.append(next_id)
                    next_id += 1
                path.append(vb)
                mass_line[va] += bm / (2 * s)
                mass_line[vb] += bm / (2 * s)
                line_level[va] = k
                line_level[vb] = k
                for p in range(s):
                    edges.append(_Edge(path[p], path[p + 1], seg_r, "line", k))
                line_paths.append(_Path(k, u, i, tuple(path), gk, bm))

    return SimpleNamespace(tags=tags, edges=edges, line_paths=line_paths,
                           mass_cell=mass_cell, mass_line=mass_line,
                           line_level=line_level)


def _loop_dump(ref) -> str:
    """The dump of the loop builder's records."""
    tags = [f"corner {t.word or '-'} {t.corner}" if isinstance(t, _Corner)
            else f"line {t.word or '-'} {t.edge}@{t.pos}" for t in ref.tags]
    return _dump(tags, (ref.mass_cell + ref.mass_line).tolist(), ref.edges)


def _loop_laplacian(edge_iter, n):
    rows, cols, vals = [], [], []
    for u, v, r in edge_iter:
        c = 1.0 / r
        rows += [u, v, u, v]
        cols += [u, v, v, u]
        vals += [c, c, -c, -c]
    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    L.sum_duplicates()
    L.sort_indices()
    return L


def _loop_neumann_split(ref, j):
    n = len(ref.tags)
    cut = (ref.line_level > 0) & (ref.line_level <= j)
    ends = np.flatnonzero(cut)
    relink = np.arange(n)
    relink[ends] = n + np.arange(ends.size)
    relink = relink.tolist()
    L = _loop_laplacian(
        ((e.u, e.v, e.resistance) if e.kind == "cell"
         else (relink[e.u], relink[e.v], e.resistance) for e in ref.edges),
        n + ends.size,
    )
    mass = np.concatenate([ref.mass_cell + np.where(cut, 0.0, ref.mass_line),
                           ref.mass_line[ends]])
    vertex_map = np.concatenate([np.arange(n), ends])
    return _components(Pencil(L, mass, vertex_map))


def _same(a, b):
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def _same_matrix(A, B):
    for name in ("data", "indices", "indptr"):
        _same(getattr(A, name), getattr(B, name))


FAMILIES = {
    "constant(0.5)": constant(0.5),
    "geometric_to_limit(0.55, 0.3)": geometric_to_limit(0.55, 0.3),
    "explicit([0.45, 0.53], cycle)": explicit([0.45, 0.53], "cycle"),
}


class TestLoopOracle:
    """The array construction reproduces the loop builder bit for bit."""

    @pytest.mark.parametrize("s", range(1, 4))
    @pytest.mark.parametrize("m", range(0, 7))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bit_identical(self, family, m, s):
        seq = FAMILIES[family]
        g = build_graph(seq, m, s, 0.25)
        ref = _loop_build(seq, m, s, 0.25)

        _same(g.edge_u, [e.u for e in ref.edges])
        _same(g.edge_v, [e.v for e in ref.edges])
        _same(g.edge_r, [e.resistance for e in ref.edges])
        _same(g.edge_level, np.array([e.level for e in ref.edges], dtype=np.int64))
        assert [e.kind for e in ref.edges[:g.n_cell_edges]] == ["cell"] * g.n_cell_edges
        assert {e.kind for e in ref.edges[g.n_cell_edges:]} <= {"line"}
        _same(g.bridge_paths, np.array([lp.nodes for lp in ref.line_paths],
                                       dtype=np.int64).reshape(-1, s + 1))
        for name in ("mass_cell", "mass_line", "line_level"):
            _same(getattr(g, name), getattr(ref, name))

        n = len(ref.tags)
        L = assemble_neumann(g).L
        _same_matrix(L, _loop_laplacian(((e.u, e.v, e.resistance) for e in ref.edges), n))

        j = (m + 1) // 2
        comps = assemble_decoupled(g, j, "neumann_split")
        expect = _loop_neumann_split(ref, j)
        assert len(comps) == len(expect)
        for c, e in zip(comps, expect):
            _same_matrix(c.L, e.L)
            _same(c.mass, e.mass)
            _same(c.vertex_map, e.vertex_map)
