"""CLI commands, config round-trip, output formats, determinism."""

import json
import math
import os
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hanoispec import analysis, geometry, resistance
from hanoispec.cli import (
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    main,
)
from hanoispec.eigensolve import BlockInertiaCounter
from hanoispec.errors import ConfigError


def base_config(outdir, **overrides):
    cfg = {
        "sequence": {"kind": "constant", "r": 0.5},
        "level": 2,
        "subdivisions": 2,
        "beta": 0.25,
        "grid": {"mode": "explicit", "points": 60,
                 "values": [5.0, 20.0, 80.0, 320.0, 1280.0]},
        "outputs": {"directory": str(outdir), "formats": ["csv", "json", "svg"]},
    }
    cfg.update(overrides)
    return cfg


# config_hash of each config: the sha256 of its canonical JSON, which holds
# every settable value; every output file carries this hash, so it must not
# move unless a settable value is added or removed
GOLDEN_HASHES = [
    ("a538328d0852b155", {  # the README example
        "sequence": {"kind": "constant", "r": 0.5},
        "level": 4, "subdivisions": 2, "beta": 0.25,
        "solver": {"backend": "auto", "dense_limit": 4000, "eps_shift": 1e-9},
        "grid": {"mode": "auto", "points": 60},
        "fit": {"n_min": 10, "eta": 0.2, "slope_tol": 0.08},
        "outputs": {"directory": "out", "formats": ["csv", "json", "svg"]},
    }),
    ("a4c8f980bace473f", {
        "sequence": {"kind": "constant", "r": 0.5}, "level": 2, "beta": 0.25,
    }),
    ("9094565ac70bfc7d", {
        "sequence": {"kind": "explicit", "values": [0.45, 0.53], "tail": "cycle"},
        "level": 3, "subdivisions": 2, "beta": 0.2,
    }),
    ("1cfc6e151f05a50d", {
        "sequence": {"kind": "explicit", "values": [0.5, 0.4, 0.55]},
        "level": 3, "beta": 0.3,
    }),
    ("56f4f63793f319c3", {
        "sequence": {"kind": "geometric_to_limit", "r_limit": 0.55, "q": 0.3},
        "level": 4, "subdivisions": 3, "beta": 0.28,
        "solver": {"backend": "inertia"},
    }),
    ("ff62759838d7e7f4", {
        "sequence": {"kind": "constant", "r": 0.5},
        "level": 3, "subdivisions": 2, "beta": 0.25,
        "solver": {"backend": "inertia", "eps_shift": 1e-10},
        "grid": {"mode": "auto", "points": 30},
        "fit": {"n_min": 5, "eta": 0.35, "slope_tol": 0.5},
        "bracketing_level": 2,
    }),
]

# (override of base_config, the dotted key the error must name)
MALFORMED = [
    pytest.param({"level": "two"}, "level", id="level"),
    pytest.param({"solver": {"dense_limit": None}}, "solver.dense_limit",
                 id="solver.dense_limit"),
    pytest.param({"fit": []}, "fit", id="fit"),
    pytest.param({"solver": {"backnd": "dense"}}, "solver.backnd", id="solver.backnd"),
    # LAPACK spectra are only the tests' oracle, not a counting backend
    pytest.param({"solver": {"backend": "dense"}}, "solver.backend", id="solver.backend-dense"),
    pytest.param({"sequence": {"kind": "constant", "r": 0.5, "q": 0.2}}, "sequence.q",
                 id="sequence.q"),
    # an int field is not truncated or coerced: these once ran as 3, 1 and 3
    pytest.param({"level": 3.7}, "level", id="level-fraction"),
    pytest.param({"level": True}, "level", id="level-boolean"),
    pytest.param({"level": "3"}, "level", id="level-numeric-string"),
    pytest.param({"solver": {"eps_shift": True}}, "solver.eps_shift",
                 id="solver.eps_shift-boolean"),
    pytest.param({"outputs": {"formats": ["csv", "svgg"]}}, "outputs.formats[1]",
                 id="outputs.formats"),
    # no command ever read outputs.seed; it only moved the config hash
    pytest.param({"outputs": {"seed": 7}}, "outputs.seed", id="outputs.seed"),
    # alpha placed the graph in the plane for a text dump that no command wrote
    pytest.param({"alpha": 0.4}, "alpha", id="alpha"),
    # bracketing needs 1 <= bracketing_level < level and s >= 2; these once ran
    # the whole count before exiting 2
    pytest.param({"level": 3, "bracketing_level": 3}, "bracketing_level",
                 id="bracketing_level-at-level"),
    pytest.param({"bracketing_level": 0}, "bracketing_level", id="bracketing_level-zero"),
    pytest.param({"subdivisions": 1, "bracketing_level": 1}, "subdivisions",
                 id="subdivisions-bracketing"),
    # out-of-range values: 0 and -1 once ran (0 left-continuous, -1 exiting 2),
    # as did grid.points 0 and -3 (a 16-point grid) and fit.eta 0 (the smallest
    # window); a k_lowest of 0 and a bad explicit grid exited 2 at count time
    pytest.param({"solver": {"eps_shift": 0}}, "solver.eps_shift", id="solver.eps_shift-zero"),
    pytest.param({"solver": {"eps_shift": -1}}, "solver.eps_shift",
                 id="solver.eps_shift-negative"),
    pytest.param({"solver": {"eps_shift": 1e-4}}, "solver.eps_shift",
                 id="solver.eps_shift-large"),
    pytest.param({"solver": {"dense_limit": -1}}, "solver.dense_limit",
                 id="solver.dense_limit-negative"),
    pytest.param({"solver": {"k_lowest": 0}}, "solver.k_lowest", id="solver.k_lowest-zero"),
    pytest.param({"grid": {"points": 0}}, "grid.points", id="grid.points-zero"),
    pytest.param({"grid": {"points": -3}}, "grid.points", id="grid.points-negative"),
    pytest.param({"grid": {"mode": "explicit", "values": [20.0, 5.0]}}, "grid.values",
                 id="grid.values-decreasing"),
    pytest.param({"grid": {"mode": "explicit", "values": [5.0, 5.0]}}, "grid.values",
                 id="grid.values-repeated"),
    pytest.param({"grid": {"mode": "explicit", "values": [0.0, 5.0]}}, "grid.values",
                 id="grid.values-zero"),
    pytest.param({"grid": {"mode": "explicit", "values": [-5.0, 5.0]}}, "grid.values",
                 id="grid.values-negative"),
    pytest.param({"fit": {"eta": 0}}, "fit.eta", id="fit.eta-zero"),
    pytest.param({"fit": {"eta": 1.5}}, "fit.eta", id="fit.eta-above-one"),
    pytest.param({"fit": {"n_min": 0}}, "fit.n_min", id="fit.n_min-zero"),
    pytest.param({"fit": {"slope_tol": -0.1}}, "fit.slope_tol", id="fit.slope_tol-negative"),
    # json reads Infinity and NaN: an infinite grid value once passed the order
    # check and died in the count with a LinAlgError traceback, and an infinite
    # slope_tol or sequence value passed as well
    pytest.param({"grid": {"mode": "explicit", "values": [1.0, 8000.0, float("inf")]}},
                 "grid.values", id="grid.values-infinite"),
    pytest.param({"fit": {"slope_tol": float("inf")}}, "fit.slope_tol",
                 id="fit.slope_tol-infinite"),
    pytest.param({"sequence": {"kind": "explicit", "values": [0.5, float("inf")]}},
                 "sequence.values", id="sequence.values-infinite"),
]


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_round_trip(self):
        cfg = config_from_dict(base_config("out"))
        again = config_from_dict(config_to_dict(cfg))
        assert cfg == again
        assert config_hash(cfg) == config_hash(again)

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(base_config("out", typo=1))
        assert "typo" in str(exc.value)

    def test_bad_beta_names_key(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(base_config("out", beta=0.4))
        assert "beta" in str(exc.value) and "1/3" in str(exc.value)

    def test_missing_sequence_key(self):
        cfg = base_config("out")
        del cfg["sequence"]
        with pytest.raises(ConfigError):
            config_from_dict(cfg)

    def test_range_ends_accepted(self):
        cfg = config_from_dict(base_config(
            "out",
            solver={"dense_limit": 0, "eps_shift": 9.9e-5, "k_lowest": 1},
            grid={"mode": "auto", "points": 1, "values": [1e-300]},
            fit={"n_min": 1, "eta": 1.0, "slope_tol": 0.0},
        ))
        assert (cfg.solver.dense_limit, cfg.fit.eta, cfg.fit.slope_tol) == (0, 1.0, 0.0)

    def test_golden_hashes(self):
        for expected, d in GOLDEN_HASHES:
            cfg = config_from_dict(d)
            assert config_hash(cfg) == expected, d
            assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("override,key", MALFORMED)
    def test_malformed_value_names_key(self, override, key):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(base_config("out", **override))
        assert key in str(exc.value)

    @pytest.mark.parametrize("override,key", MALFORMED)
    def test_malformed_value_exit_one(self, tmp_path, capsys, override, key):
        cfgfile = write_config(tmp_path, base_config(tmp_path / "out", **override))
        assert main(["validate", "--config", cfgfile]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err

    def test_readme_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        cfg = config_from_dict(json.loads(block))
        assert config_hash(cfg) == GOLDEN_HASHES[0][0]

    def test_load_reports_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert "line" in str(exc.value)


class TestUsage:
    @pytest.mark.parametrize(
        "argv", [["counting"], ["plot", "--config", "run.json"]],
        ids=["missing-config", "unknown-command"],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        # 2 is the documented exit code of a numerical failure, not of a usage error
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestValidateCommand:
    def test_good_config_exit_zero(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, base_config(tmp_path / "out", level=3))
        assert main(["validate", "--config", cfgfile]) == 0
        out = capsys.readouterr().out
        assert "d_S" in out and "all invariant checks pass" in out

    def test_bad_beta_exit_one(self, tmp_path):
        cfgfile = write_config(tmp_path, base_config(tmp_path / "out", beta=0.4))
        assert main(["validate", "--config", cfgfile]) == 1

    def test_bad_explicit_pair_nonzero_exit(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path / "out",
            sequence={"kind": "explicit", "values": [0.5, 0.7], "tail": "cycle"},
        )
        cfgfile = write_config(tmp_path, cfg)
        code = main(["validate", "--config", cfgfile])
        assert code != 0
        assert "pair 2" in capsys.readouterr().out

    def test_quiet(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["validate", "--config", cfgfile, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_graph_past_physical_memory_exits_one(self, tmp_path, capsys):
        # level 20 has 1.6e10 vertices: validate refuses it before the graph is built
        cfgfile = write_config(tmp_path, base_config(tmp_path / "out", level=20))
        assert main(["validate", "--config", cfgfile, "--quiet"]) == 1
        assert "of physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("level,memory,code", [
        (2, 370 * 39, 0),       # level 2, s = 2: 39 vertices at 370 bytes each
        (2, 370 * 39 - 1, 1),
        # 7.83 GiB: the level-15 graph's arrays (6.7 GiB) would fit, but not
        # validate's 6.5e7 vertices at 370 bytes each
        (15, int(7.83 * 2**30), 1),
    ])
    def test_memory_bound_is_370_bytes_per_vertex(self, tmp_path, monkeypatch, level, memory,
                                                  code):
        def no_graph(*args, **kwargs):
            raise AssertionError("the graph was built")

        pages = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(geometry.os, "sysconf", pages.__getitem__)
        if code:
            monkeypatch.setattr(geometry, "build_graph", no_graph)
        cfgfile = write_config(tmp_path, base_config(tmp_path / "out", level=level))
        assert main(["validate", "--config", cfgfile, "--quiet"]) == code


class TestSpectrumCommand:
    def test_m0_golden_eigenvalues(self, tmp_path):
        cfg = base_config(tmp_path / "out", level=0, subdivisions=1)
        cfgfile = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfgfile, "--quiet"]) == 0
        lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "k,lambda,boundary"
        rows = [l.split(",") for l in lines[2:]]
        assert [r[2] for r in rows] == ["neumann"] * 3
        vals = [float(r[1]) for r in rows]
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        assert vals[1] == pytest.approx(9.0, rel=1e-9)
        assert vals[2] == pytest.approx(9.0, rel=1e-9)

    def test_m0_k_lowest_writes_the_full_table(self, tmp_path):
        # the V_0-grounded level-0 triangle has no rows: with or without
        # k_lowest, the 3 Neumann rows and no dirichlet_v0 row
        tables = []
        for k in (None, 3):
            cfg = base_config(tmp_path / f"out{k}", level=0, subdivisions=1)
            if k is not None:
                cfg["solver"] = {"k_lowest": k}
            cfgfile = write_config(tmp_path, cfg, name=f"run{k}.json")
            assert main(["spectrum", "--config", cfgfile, "--quiet"]) == 0
            tables.append((tmp_path / f"out{k}" / "eigenvalues.csv").read_text().splitlines())
        assert tables[0][1:] == tables[1][1:]
        assert [line.split(",")[2] for line in tables[1][2:]] == ["neumann"] * 3

    def test_multiplicity_table(self, tmp_path):
        cfg = base_config(tmp_path / "out", level=1, subdivisions=1)
        cfgfile = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfgfile, "--quiet"]) == 0
        text = (tmp_path / "out" / "multiplicity.csv").read_text()
        assert "neumann" in text and "dirichlet_v0" in text

    def test_size_error_suggests_counting(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", level=3)
        cfg["solver"] = {"dense_limit": 10}
        cfgfile = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfgfile, "--quiet"]) == 1
        assert "counting" in capsys.readouterr().err

    def test_size_error_before_the_graph(self, tmp_path, monkeypatch, capsys):
        # the closed-form vertex count is checked before any graph is built
        def no_graph(*args, **kwargs):
            raise AssertionError("the graph was built above the dense limit")

        monkeypatch.setattr(geometry, "build_graph", no_graph)
        cfg = base_config(tmp_path / "out", level=11)
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--quiet"]) == 1
        assert "pencil of size 797160 exceeds dense_limit 4000" in capsys.readouterr().err

    def test_k_lowest_path(self, tmp_path):
        cfg = base_config(tmp_path / "out", level=3)
        cfg["solver"] = {"dense_limit": 10, "k_lowest": 4}
        cfgfile = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfgfile, "--quiet"]) == 0
        lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
        assert len([l for l in lines if l.endswith(",neumann")]) == 4

    def test_zero_pivot_in_50_digits_exits_2(self, tmp_path, monkeypatch, capsys):
        # every count above 0 meets a zero pivot, in floats and in the
        # 50-digit recount, so the first threshold above 0 sits on an
        # eigenvalue; the set-up pass below -lambda_max still passes
        rows = BlockInertiaCounter._pass

        def zero_pivots(self, x, level=None):
            counts, ok = rows(self, x, level)
            return counts, ok & (x < 0.0)

        monkeypatch.setattr(BlockInertiaCounter, "_pass", zero_pivots)
        cfgfile = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["spectrum", "--config", cfgfile, "--quiet"]) == 2
        assert "sits on an eigenvalue: its 50-digit count" in capsys.readouterr().err

    def test_level_20_k_lowest_builds_no_graph(self, tmp_path, monkeypatch):
        # 1.6e10 vertices: the 101 lowest of each pencil come from the counts
        def no_graph(*args, **kwargs):
            raise AssertionError("the spectrum command built a graph")

        monkeypatch.setattr(geometry, "build_graph", no_graph)
        monkeypatch.setattr(analysis, "build_graph", no_graph)
        cfg = base_config(tmp_path / "out", level=20, solver={"k_lowest": 101})
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--quiet"]) == 0
        lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()[2:]
        for boundary in ("neumann", "dirichlet_v0"):
            ev = [float(line.split(",")[1]) for line in lines if line.endswith("," + boundary)]
            assert len(ev) == 101 and ev == sorted(ev)


class TestCountingCommand:
    def _run(self, tmp_path, outname="out", **overrides):
        cfg = base_config(
            tmp_path / outname,
            level=3,
            grid={"mode": "auto", "points": 40},
            **overrides,
        )
        cfgfile = write_config(tmp_path, cfg, name=f"{outname}.json")
        code = main(["counting", "--config", cfgfile, "--quiet"])
        return code, tmp_path / outname

    def test_full_run(self, tmp_path):
        code, outdir = self._run(tmp_path, fit={"n_min": 10, "eta": 0.2,
                                                "slope_tol": 0.2})
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["verdict"] == "pass"
        assert set(report["fit"]) >= {"slope", "stderr", "window", "predicted"}
        lines = (outdir / "counting.csv").read_text().splitlines()
        assert lines[1] == "x,n_dirichlet,n_neumann,lower_sum,upper_sum,weyl_ratio"

    def test_once_unclear_sample_is_counted_and_reported(self, tmp_path):
        # constant(0.05), level 10: a rounding test on the pivots once flagged
        # one of the 400 grid points and the run exited 2, and dropped counts
        # had started the grid at 705.97, above lambda_12.  All counts are
        # certified now: the grid starts at lambda_10 = lambda_11 (672.30,
        # N_N from 9 to 11), and the report counts the certified thresholds
        # of the grid search and of the grid, and no 50-digit recount
        cfg = base_config(tmp_path / "out", level=10, sequence={"kind": "constant", "r": 0.05},
                          grid={"mode": "auto", "points": 60})
        assert main(["counting", "--config", write_config(tmp_path, cfg), "--quiet"]) == 0
        lines = (tmp_path / "out" / "counting.csv").read_text().splitlines()[2:]
        assert len(lines) == 400
        x, nd, nn = lines[0].split(",")[:3]
        assert float(x) == pytest.approx(672.3010737969796, rel=1e-9) and (nd, nn) == ("9", "11")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["work"] == {"certified": 441 + 400, "fallbacks": 0}

    def test_svg_well_formed(self, tmp_path):
        code, outdir = self._run(tmp_path, fit={"n_min": 10, "eta": 0.2,
                                                "slope_tol": 0.2})
        assert code == 0
        svg = (outdir / "loglog.svg").read_text()
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        lines = root.findall(f".//{ns}line")
        circles = root.findall(f".//{ns}circle")
        assert len(lines) == 2
        report = json.loads((outdir / "report.json").read_text())
        assert len(circles) >= report["fit"]["n_points"]

    def test_bracketing_in_report(self, tmp_path):
        cfg = base_config(
            tmp_path / "outb",
            level=3,
            grid={"mode": "auto", "points": 30},
            bracketing_level=1,
            fit={"n_min": 10, "eta": 0.2, "slope_tol": 0.2},
        )
        cfgfile = write_config(tmp_path, cfg)
        assert main(["counting", "--config", cfgfile, "--quiet"]) == 0
        report = json.loads((tmp_path / "outb" / "report.json").read_text())
        assert report["bracketing"]["violations"] == []

    @pytest.mark.parametrize("bracketing", [None, 2], ids=["plain", "bracketed"])
    def test_backends_write_the_same_files(self, tmp_path, bracketing):
        # auto and inertia name the same engine, so every output, the
        # report's work included, agrees byte for byte apart from the config hash
        outputs = {}
        for backend in ("auto", "inertia"):
            code, outdir = self._run(tmp_path, outname=backend, solver={"backend": backend},
                                     bracketing_level=bracketing)
            h = config_hash(load_config(str(tmp_path / f"{backend}.json")))
            files = {}
            for name in ("counting.csv", "report.json", "loglog.svg"):
                lines = (outdir / name).read_text().splitlines()
                assert sum(h in line for line in lines) == 1
                files[name] = [line for line in lines if h not in line]
            outputs[backend] = (code, files)
        assert outputs["auto"] == outputs["inertia"]

    def test_level_past_int64_exits_two(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", level=39)
        assert main(["counting", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2
        assert "int64" in capsys.readouterr().err

    def test_insufficient_window_exit_two(self, tmp_path):
        cfg = base_config(tmp_path / "outx", level=1, subdivisions=1)
        cfg["grid"] = {"mode": "explicit", "values": [1.0, 2.0]}
        cfgfile = write_config(tmp_path, cfg)
        assert main(["counting", "--config", cfgfile, "--quiet"]) == 2


class TestResistanceCommand:
    def test_outputs(self, tmp_path):
        cfg = base_config(tmp_path / "outr", level=3, subdivisions=1)
        cfgfile = write_config(tmp_path, cfg)
        assert main(["resistance", "--config", cfgfile, "--quiet"]) == 0
        compat = (tmp_path / "outr" / "compatibility.csv").read_text().splitlines()
        assert compat[1] == "m,pair,resistance,deviation"
        first = compat[2].split(",")
        assert first[0] == "0"
        assert float(first[2]) == pytest.approx(2.0 / 3.0, rel=1e-9)
        report = json.loads((tmp_path / "outr" / "resistance_report.json").read_text())
        assert report["compatibility"]["ok"]
        assert report["verdict"] == "pass"
        assert "diameter_fit" in report
        assert report["diameter_fit"]["corner_chain_dimension"] == pytest.approx(
            math.log(3) / math.log(2), rel=1e-6)

    def test_sequence_without_a_tail_rule(self, tmp_path):
        # the three ratios cover level 3 but not the corner chain's 48
        # levels: the report is complete, with no chain dimension
        cfg = base_config(tmp_path / "outr", level=3, subdivisions=1,
                          sequence={"kind": "explicit", "values": [0.5, 0.4, 0.55]})
        assert main(["resistance", "--config", write_config(tmp_path, cfg), "--quiet"]) == 0
        report = json.loads((tmp_path / "outr" / "resistance_report.json").read_text())
        assert report["verdict"] == "pass"
        fit = report["diameter_fit"]
        assert fit["corner_chain_dimension"] is None
        assert fit["predicted_dimension"] is None
        assert math.isfinite(fit["dimension_estimate"])

    def test_level_16_refused_by_the_diameters_size_check(self, tmp_path, monkeypatch, capsys):
        # on a 5 GiB host the diameters' 3**15 blocks at 410 bytes each
        # (5.5 GiB) do not fit: exit 1 before the scale factors are read or
        # any output is written
        def no_scales(*args, **kwargs):
            raise AssertionError("the scale factors were read")

        pages = {"SC_PHYS_PAGES": 5 * 2**30, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(geometry.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(resistance, "level_scales", no_scales)
        cfg = base_config(tmp_path / "out", level=16, subdivisions=1)
        assert main(["resistance", "--config", write_config(tmp_path, cfg), "--quiet"]) == 1
        assert "the diameters of the level-15 blocks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = base_config(tmp_path / "ignored", level=1, subdivisions=1)
        cfgfile = write_config(tmp_path, cfg)
        target = tmp_path / "flagged"
        assert main(["resistance", "--config", cfgfile, "--quiet",
                     "--out", str(target)]) == 0
        assert (target / "compatibility.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestDeterminism:
    @pytest.mark.parametrize("command", ["spectrum", "counting", "resistance"])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = base_config(
            tmp_path / "det",
            level=2,
            subdivisions=2,
            grid={"mode": "auto", "points": 25},
            fit={"n_min": 5, "eta": 0.35, "slope_tol": 0.5},
        )
        cfgfile = write_config(tmp_path, cfg)
        main([command, "--config", cfgfile, "--quiet"])
        snapshot = {
            name: (tmp_path / "det" / name).read_bytes()
            for name in os.listdir(tmp_path / "det")
        }
        main([command, "--config", cfgfile, "--quiet"])
        for name, blob in snapshot.items():
            assert (tmp_path / "det" / name).read_bytes() == blob
