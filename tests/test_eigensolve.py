"""Dense and inertia eigenvalue backends and their cross-validation."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hanoispec import eigensolve
from hanoispec.assembly import (
    Boundary,
    Pencil,
    apply_dirichlet,
    assemble_decoupled,
    assemble_neumann,
)
from hanoispec.eigensolve import (
    InertiaCounter,
    count_below,
    eig_dense,
    eig_dense_cached,
    eig_lowest,
    get_counter,
    lambda_max_bound,
)
from hanoispec.errors import (
    DomainError,
    PencilSizeError,
    ThresholdAtEigenvalueError,
)
from hanoispec.geometry import build_graph
from hanoispec.sequences import constant

SEQ = constant(0.5)


def path_pencil():
    # free-free path of 2 unit resistors, trapezoidal masses
    L = sp.csr_matrix(
        np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    )
    return Pencil(L, np.array([0.25, 0.5, 0.25]), Boundary("neumann"), np.arange(3))


def m0_pencil():
    return assemble_neumann(build_graph(SEQ, 0, 1, 0.25))


class TestDense:
    def test_m0(self):
        spec = eig_dense(m0_pencil())
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 9.0, 9.0], atol=1e-10)

    def test_path(self):
        spec = eig_dense(path_pencil())
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 4.0, 8.0], atol=1e-12)

    def test_dirichlet_positive(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        p = apply_dirichlet(assemble_neumann(g), g, "v0")
        assert eig_dense(p).eigenvalues[0] > 0

    def test_size_limit(self):
        g = build_graph(SEQ, 3, 2, 0.25)
        with pytest.raises(PencilSizeError) as exc:
            eig_dense(assemble_neumann(g), dense_limit=50)
        assert "count_below" in str(exc.value)

    def test_size_limit_holds_for_cached_spectrum(self):
        p = assemble_neumann(build_graph(SEQ, 3, 2, 0.25))
        assert eig_dense_cached(p).n == p.n
        with pytest.raises(PencilSizeError):
            eig_dense_cached(p, dense_limit=10)

    def test_mass_scaling(self):
        p = assemble_neumann(build_graph(SEQ, 2, 1, 0.25))
        base = eig_dense(p).eigenvalues
        scaled = eig_dense(p.scaled(2.0)).eigenvalues
        np.testing.assert_allclose(scaled, base / 2.0, rtol=1e-12, atol=1e-12)

    def test_neumann_zero_mode_constant(self):
        p = assemble_neumann(build_graph(SEQ, 2, 2, 0.25))
        d = 1.0 / np.sqrt(p.mass)
        A = p.L.toarray() * d[None, :] * d[:, None]
        w, U = np.linalg.eigh(0.5 * (A + A.T))
        v = U[:, 0] * d
        v /= np.linalg.norm(v)
        dev = np.abs(v - v.mean() * np.ones_like(v)).max() / np.abs(v).max()
        assert dev < 1e-8

    def test_multiplicities(self):
        spec = eig_dense(m0_pencil())
        groups = spec.multiplicities()
        assert [m for _, m in groups] == [1, 2]


class TestInertia:
    def test_m0_counts(self):
        p = m0_pencil()
        assert count_below(p, 1.0).count == 1
        assert count_below(p, 10.0).count == 3

    def test_counts_monotone(self):
        p = assemble_neumann(build_graph(SEQ, 2, 2, 0.25))
        ctr = get_counter(p)
        grid = np.geomspace(0.1, lambda_max_bound(p), 40)
        counts = [ctr.count_below(float(x)).count for x in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_right_continuous_convention(self):
        # x = 9 hits the double eigenvalue of the level-0 triangle
        p = m0_pencil()
        assert count_below(p, 9.0 * (1 + 1e-9)).count == 3

    def test_threshold_at_eigenvalue_retry(self):
        # the path pencil has an exact eigenvalue at 4; the first factorization
        # breaks down and a shifted retry must succeed
        res = count_below(path_pencil(), 4.0)
        assert res.count == 2
        assert not res.factorization_ok

    def test_threshold_error_on_hopeless_shift(self):
        # x = 0 on a singular matrix cannot be nudged multiplicatively
        with pytest.raises(ThresholdAtEigenvalueError):
            count_below(m0_pencil(), 0.0)

    def test_fill_is_allocated(self):
        # the fill reported at set-up is that of the factors every threshold uses
        p = assemble_neumann(build_graph(SEQ, 3, 2, 0.25))
        ctr = InertiaCounter(p)
        lu = ctr._factor(100.0)
        assert ctr.fill_nonzeros == sp.tril(lu.L, k=-1).nnz
        assert ctr.fill_nonzeros >= sp.tril(p.L, k=-1).nnz

    @pytest.mark.parametrize("m", [0, 2])
    def test_zero_diagonal_thresholds(self, m):
        # at x = L_ii / m_i a diagonal entry of L - x M is exactly zero, where
        # SuperLU interchanges rows; such a factorization must not be counted
        p = assemble_neumann(build_graph(SEQ, m, 2, 0.25))
        spec = eig_dense(p)
        ctr = get_counter(p)
        for x in np.unique(p.L.diagonal() / p.mass):
            res = ctr.count_below(float(x))
            oracle = int(np.searchsorted(spec.eigenvalues, res.x, side="left"))
            assert res.count == oracle, (x, res)


def _pencil_zoo():
    zoo = []
    for m, s in [(0, 1), (1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 2), (5, 2)]:
        g = build_graph(SEQ, m, s, 0.25)
        p_n = assemble_neumann(g)
        zoo.append(p_n)
        if m >= 1:
            zoo.append(apply_dirichlet(p_n, g, "v0"))
        if 2 <= m <= 3:
            for j in range(1, m):
                zoo.extend(assemble_decoupled(g, j, "neumann_split"))
                zoo.extend(assemble_decoupled(g, j, "dirichlet_split"))
    return zoo


class TestBackendAgreement:
    def test_dense_vs_inertia_exact(self):
        mismatches = []
        for p in _pencil_zoo():
            spec = eig_dense(p)
            ctr = get_counter(p)
            hi = max(float(spec.eigenvalues[-1]) * 1.3, 1.0)
            grid = list(np.geomspace(hi * 1e-4, hi, 50))
            # the symmetry of the gasket makes highly repeated eigenvalues
            # common; sit on each, and one ulp either side of it
            for lam, mult in spec.multiplicities():
                if mult >= 3:
                    grid += [np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)]
            for x in grid:
                a = spec.count_leq(float(x))
                b = ctr.count_below(float(x) * (1 + 1e-9)).count
                if a != b:
                    mismatches.append((p.n, float(x), a, b))
        assert mismatches == []

    def test_thresholds_at_exact_eigenvalues(self):
        # the free path has closed-form eigenvalues 4 s^2 sin^2(k pi / 2s);
        # querying exactly there must either factor cleanly or retry, and the
        # returned count must match the dense spectrum at the threshold used
        from hanoispec.analysis import free_path_pencil

        s = 8
        p = free_path_pencil(s)
        spec = eig_dense(p)
        ctr = get_counter(p)
        for k in range(1, s + 1):
            lam = 4.0 * s * s * np.sin(k * np.pi / (2 * s)) ** 2
            res = ctr.count_below(float(lam))
            oracle = int(np.searchsorted(spec.eigenvalues, res.x, side="left"))
            assert res.count == oracle

    def test_random_weighted_laplacians(self):
        # kernel robustness beyond the gasket structure: random connected
        # graphs with log-uniform conductances and masses
        rng = np.random.default_rng(17)
        for trial in range(5):
            n = 60
            rows, cols, vals = [], [], []
            for i in range(1, n):
                j = int(rng.integers(0, i))  # random spanning tree
                rows.append(i), cols.append(j)
            extra = rng.integers(0, n, size=(40, 2))
            for i, j in extra:
                if i != j:
                    rows.append(int(i)), cols.append(int(j))
            for _ in rows:
                vals.append(float(np.exp(rng.uniform(-3, 3))))
            L = sp.coo_matrix((vals + vals, (rows + cols, cols + rows)), shape=(n, n))
            L = (sp.diags(np.asarray(L.sum(axis=1)).ravel()) - L).tocsr()
            mass = np.exp(rng.uniform(-3, 1, size=n))
            p = Pencil(L, mass, Boundary("neumann"), np.arange(n))
            spec = eig_dense(p)
            ctr = get_counter(p)
            hi = float(spec.eigenvalues[-1]) * 1.2
            for x in np.geomspace(hi * 1e-5, hi, 60):
                assert spec.count_leq(float(x)) == ctr.count_below(
                    float(x) * (1 + 1e-9)
                ).count


class TestLowest:
    def test_m0_two(self):
        spec = eig_lowest(m0_pencil(), 2)
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 9.0], atol=1e-10)

    def test_matches_dense_on_larger_graph(self):
        p = assemble_neumann(build_graph(SEQ, 3, 2, 0.25))
        low = eig_lowest(p, 12)
        full = eig_dense(p)
        np.testing.assert_allclose(low.eigenvalues, full.eigenvalues[:12],
                                   rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("boundary,n", [("neumann", 363), ("dirichlet_v0", 360)])
    def test_shift_invert_path_matches_dense(self, monkeypatch, boundary, n):
        # n > 300 and k <= n/3: eig_lowest must answer from ARPACK, without
        # falling back to the dense solver
        g = build_graph(SEQ, 4, 2, 0.25)
        p = assemble_neumann(g)
        if boundary == "dirichlet_v0":
            p = apply_dirichlet(p, g, "v0")
        assert p.n == n
        ref = eig_dense(p).eigenvalues[:12]
        calls = []
        eigsh = spla.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs["k"])
            return eigsh(*args, **kwargs)

        def no_dense(*args, **kwargs):
            raise AssertionError("eig_lowest fell back to the dense solver")

        monkeypatch.setattr(spla, "eigsh", spy)
        monkeypatch.setattr(eigensolve, "eig_dense", no_dense)
        low = eig_lowest(p, 12)
        assert calls == [12]
        np.testing.assert_allclose(low.eigenvalues, ref, rtol=1e-7, atol=1e-7 * ref[-1])

    def test_scaling_law(self):
        p = assemble_neumann(build_graph(SEQ, 2, 2, 0.25))
        base = eig_lowest(p, 5).eigenvalues
        scaled = eig_lowest(p.scaled(2.0), 5).eigenvalues
        np.testing.assert_allclose(scaled, base / 2.0, rtol=1e-10, atol=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            eig_lowest(m0_pencil(), 0)

    def test_first_dirichlet_eigenvalue_scales_with_level(self):
        # lowest eigenvalue of grounded level-j blocks grows like (3/r)^j
        import math

        lam1 = []
        for j in (1, 2, 3):
            g = build_graph(SEQ, 4, 2, 0.25)
            comps = assemble_decoupled(g, j, "dirichlet_split")
            blocks = [c for c in comps if c.n > g.s]
            lam1.append(min(float(eig_lowest(c, 1).eigenvalues[0]) for c in blocks))
        ratios = [lam1[i + 1] / lam1[i] for i in range(2)]
        for rr in ratios:
            assert 0.3 * 6.0 <= rr <= 3.0 * 6.0  # (3/r) = 6 up to bounded constants
        slope = np.polyfit([1, 2, 3], np.log(lam1), 1)[0]
        assert slope == pytest.approx(math.log(6.0), rel=0.35)
