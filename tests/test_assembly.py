"""Pencil assembly, Dirichlet restriction, decoupled splits."""

import json
import os

import numpy as np
import pytest

from hanoispec.analysis import eigenvalue_brackets, eigenvalue_groups
from hanoispec.assembly import (
    apply_dirichlet,
    assemble_decoupled,
    assemble_neumann,
)
from hanoispec.eigensolve import eig_dense
from hanoispec.errors import AssemblyError, LevelError
from hanoispec.geometry import build_graph
from hanoispec.sequences import constant, explicit

SEQ = constant(0.5)

# Distinct component spectra (with their multiplicities) of the level-3,
# s = 2 decoupled forms at j = 1, 2, frozen from the per-block assembly
# that preceded the cut-and-split construction.
GOLDEN_DECOUPLED = os.path.join(os.path.dirname(__file__), "golden_decoupled.json")
GOLDEN_SEQS = {
    "constant(0.5)": constant(0.5),
    "explicit([0.45, 0.53], cycle)": explicit([0.45, 0.53], "cycle"),
}


def graph(m, s, beta=0.25):
    return build_graph(SEQ, m, s, beta)


class TestNeumann:
    def test_m0_matrix(self):
        p = assemble_neumann(graph(0, 1))
        expect = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        np.testing.assert_allclose(p.L.toarray(), expect)
        np.testing.assert_allclose(p.mass, 1.0 / 3.0)
        spec = eig_dense(p)
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 9.0, 9.0], atol=1e-10)

    def test_row_sums_zero(self):
        for m, s in [(1, 1), (2, 2), (3, 1)]:
            p = assemble_neumann(graph(m, s))
            np.testing.assert_allclose(
                np.asarray(p.L.sum(axis=1)).ravel(), 0.0, atol=1e-12
            )

    def test_corner_diagonal_example(self):
        # corner with one bridge: 2/delta_1 + 1/gamma_1 = 4 + 6 = 10
        g = graph(1, 1)
        p = assemble_neumann(g)
        diag = p.L.diagonal()
        v0 = {g.corner_id("1", 1), g.corner_id("2", 2), g.corner_id("3", 3)}
        for v in range(p.n):
            assert diag[v] == pytest.approx(4.0 if v in v0 else 10.0, rel=1e-13)

    def test_psd(self):
        p = assemble_neumann(graph(2, 2))
        w = np.linalg.eigvalsh(p.L.toarray())
        assert w[0] >= -1e-12 * abs(w[-1])

    def test_names_first_bad_edge(self):
        g = graph(2, 2)
        g.edge_r[[7, 40]] = [np.inf, -1.0]
        u, v = g.edge_u[7], g.edge_v[7]
        with pytest.raises(AssemblyError, match=rf"edge \({u},{v}\) has resistance inf"):
            assemble_neumann(g)

    def test_zero_mode_constant(self):
        p = assemble_neumann(graph(2, 1))
        assert np.allclose(p.L.dot(np.ones(p.n)), 0.0, atol=1e-12)

    def test_m1_golden_spectrum(self):
        # frozen from the dense oracle at first build; multiplicity pattern
        # (1,2,2,1,2,1) reflects the threefold symmetry, and the counts'
        # brackets give it
        p = assemble_neumann(graph(1, 1))
        spec = eig_dense(p)
        golden = [0.0, 21.729757306613436, 21.729757306613436,
                  54.69231226490625, 54.69231226490625, 58.0840336134454,
                  134.13255227721984, 134.13255227721984, 152.4705882352941]
        np.testing.assert_allclose(spec.eigenvalues, golden, rtol=1e-9, atol=1e-9)
        lo, hi = eigenvalue_brackets(SEQ, 1, 1, 0.25, p.n)[0]
        assert [m for _, m in eigenvalue_groups(lo, hi)] == [1, 2, 2, 1, 2, 1]


class TestDirichlet:
    def test_m0_all_constrained(self):
        g = graph(0, 1)
        p = apply_dirichlet(assemble_neumann(g), g, "v0")
        assert p.n == 0 and p.mass.size == 0 and p.vertex_map.size == 0

    def test_m1_v0_size(self):
        g = graph(1, 1)
        p = apply_dirichlet(assemble_neumann(g), g, "v0")
        assert p.n == 6

    def test_m1_vm1_s1_empty(self):
        g = graph(1, 1)
        assert apply_dirichlet(assemble_neumann(g), g, "vm", level=1).n == 0

    def test_m1_vm1_s2_line_nodes_only(self):
        g = graph(1, 2)
        p = apply_dirichlet(assemble_neumann(g), g, "vm", level=1)
        assert p.n == 3  # one interior node per bridge

    def test_dirichlet_positive_definite(self):
        g = graph(2, 2)
        p = apply_dirichlet(assemble_neumann(g), g, "v0")
        spec = eig_dense(p)
        assert spec.eigenvalues[0] > 0

    def test_interlacing_rank3(self):
        g = graph(3, 2)
        p_n = assemble_neumann(g)
        p_d = apply_dirichlet(p_n, g, "v0")
        ev_n = eig_dense(p_n).eigenvalues
        ev_d = eig_dense(p_d).eigenvalues
        for x in np.geomspace(0.5, ev_n[-1] * 1.1, 40):
            nn = int(np.searchsorted(ev_n, x * (1 + 1e-9), side="left"))
            nd = int(np.searchsorted(ev_d, x * (1 + 1e-9), side="left"))
            assert 0 <= nn - nd <= 3


class TestDecoupled:
    def test_j0_identity(self):
        g = graph(2, 2)
        comps = assemble_decoupled(g, 0, "neumann_split")
        assert len(comps) == 1
        base = assemble_neumann(g)
        assert (comps[0].L != base.L).nnz == 0
        np.testing.assert_allclose(comps[0].mass, base.mass)

    def test_neumann_split_components_m2_j1(self):
        g = graph(2, 2)
        comps = assemble_decoupled(g, 1, "neumann_split")
        # three level-1 blocks of 12 vertices, three cut bridges of 3
        assert sorted(c.n for c in comps) == [3, 3, 3, 12, 12, 12]
        n_corners = 3 ** (g.m + 1)
        for c in comps:
            if c.n == 3:
                # free-free path of two segments: two corner ends, one interior node
                assert sorted(np.diff(c.L.indptr)) == [2, 2, 3]
                assert np.count_nonzero(c.vertex_map < n_corners) == 2
        # every component keeps a zero mode
        for c in comps:
            assert abs(np.asarray(c.L.sum(axis=1)).ravel()).max() < 1e-12

    def test_neumann_split_mass_conserved(self):
        g = graph(3, 2)
        for j in (0, 1, 2, 3):
            comps = assemble_decoupled(g, j, "neumann_split")
            total = sum(float(c.mass.sum()) for c in comps)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_golden_component_spectra(self):
        with open(GOLDEN_DECOUPLED, encoding="utf-8") as fh:
            golden = json.load(fh)
        checked = 0
        for name, seq in GOLDEN_SEQS.items():
            g = build_graph(seq, 3, 2, 0.25)
            for j in (1, 2):
                for kind in ("neumann_split", "dirichlet_split"):
                    want = golden[f"{name} j={j} {kind}"]
                    comps = assemble_decoupled(g, j, kind)
                    assert len(comps) == want["components"]
                    hits = [0] * len(want["classes"])
                    for c in comps:
                        ev = eig_dense(c).eigenvalues
                        match = [
                            i for i, (_, gold) in enumerate(want["classes"])
                            if len(gold) == len(ev)
                            and np.allclose(ev, gold, rtol=1e-9, atol=1e-9)
                        ]
                        assert len(match) == 1, (name, j, kind)
                        hits[match[0]] += 1
                    assert hits == [mult for mult, _ in want["classes"]]
                    checked += 1
        assert checked == len(golden)

    def test_dirichlet_split_components_m2_j1(self):
        g = graph(2, 2)
        comps = assemble_decoupled(g, 1, "dirichlet_split")
        sizes = sorted(c.n for c in comps)
        assert sizes == [1, 1, 1, 9, 9, 9]
        for c in comps:
            w = np.linalg.eigvalsh(c.L.toarray())
            assert w[0] > 0  # grounded components are positive definite

    @pytest.mark.parametrize("m,j,sizes", [(2, 1, [6, 6, 6]), (0, 0, []), (1, 1, []),
                                           (2, 2, []), (3, 3, [])])
    def test_dirichlet_split_s1_drops_bridges(self, m, j, sizes):
        # at s = 1 a bridge has no interior node, and V_m is every vertex
        comps = assemble_decoupled(graph(m, 1), j, "dirichlet_split")
        assert sorted(c.n for c in comps) == sizes

    def test_level_error(self):
        g = graph(2, 1)
        with pytest.raises(LevelError):
            assemble_decoupled(g, 3, "neumann_split")

    def test_counting_sandwich_small(self):
        g = graph(3, 2)
        p_n = assemble_neumann(g)
        p_d = apply_dirichlet(p_n, g, "v0")
        ev_n = eig_dense(p_n).eigenvalues
        ev_d = eig_dense(p_d).eigenvalues
        upper = assemble_decoupled(g, 1, "neumann_split")
        lower = assemble_decoupled(g, 1, "dirichlet_split")
        ev_up = [eig_dense(c).eigenvalues for c in upper]
        ev_lo = [eig_dense(c).eigenvalues for c in lower]
        for x in np.geomspace(1.0, float(ev_n[-1]) * 1.1, 30):
            t = x * (1 + 1e-9)
            nn = int(np.searchsorted(ev_n, t, side="left"))
            nd = int(np.searchsorted(ev_d, t, side="left"))
            nu = sum(int(np.searchsorted(e, t, side="left")) for e in ev_up)
            nl = sum(int(np.searchsorted(e, t, side="left")) for e in ev_lo)
            assert nl <= nd <= nn <= nu
