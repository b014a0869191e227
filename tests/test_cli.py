"""Tests for the experiment CLI: config handling, runners, determinism.

Runner tests use deliberately small horizons: a single readout pair at the
lowest frequency (slowest group velocity still arrives within t = 0.92 when
injected at mu0 = 0.99) keeps each solve to a couple hundred time steps.
"""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phonon_inverse import cli
from phonon_inverse.cli import (
    ExperimentConfig,
    assemble_config,
    load_config,
    main,
    run_forward_demo,
)
from phonon_inverse.grid import GridConfig, build_grid
from phonon_inverse.inverse import frequency_sweep_pairs, generate_data
from phonon_inverse.material import build_material, default_g_star, ground_truth_tau


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def summary_dict(path):
    _, rows = read_csv(path)
    return {key: value for key, value in rows}


def write_config(tmp_path, text):
    path = tmp_path / "case.ini"
    path.write_text(text)
    return path


# A one-pair reconstruction setup cheap enough for per-test solves.  The
# snapshot defaults are cleared because the full config is validated for
# every command and they would exceed the shortened horizon.
CHEAP_PAIR_INI = """
[grid]
t_end = 0.92

[forward]
snapshot_times =

[pairs]
t0 = 0.02
mu0 = 0.99
test_width = 0.02
omega_centers = 0.4
"""


class TestConfigParsing:
    def test_defaults_round_trip(self, tmp_path):
        config = ExperimentConfig()
        path = tmp_path / "echo.ini"
        path.write_text(config.to_ini())
        assert load_config(path) == config

    def test_echo_is_byte_stable(self, tmp_path):
        config = ExperimentConfig()
        path = tmp_path / "echo.ini"
        path.write_text(config.to_ini())
        assert load_config(path).to_ini() == config.to_ini()

    def test_overlay_changes_only_named_keys(self, tmp_path):
        path = write_config(tmp_path, "[grid]\ndt = 0.01\n")
        config = load_config(path)
        assert config.grid.dt == 0.01
        assert config.grid.dx == ExperimentConfig().grid.dx

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[gird]\ndt = 0.01\n")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(path)

    def test_default_section_alone_rejected(self, tmp_path):
        path = write_config(tmp_path, "[DEFAULT]\ndt = 0.001\n")
        with pytest.raises(ValueError, match=r"unknown config section \[DEFAULT\]"):
            load_config(path)

    def test_default_section_beside_known_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[DEFAULT]\nbudget = 7\n\n[optimizer]\nmethod = armijo\n")
        with pytest.raises(ValueError, match=r"unknown config section \[DEFAULT\]"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[grid]\ndt_step = 0.01\n")
        with pytest.raises(ValueError, match="unknown key 'dt_step'"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_bad_float_reported_with_location(self, tmp_path):
        path = write_config(tmp_path, "[grid]\ndt = fast\n")
        with pytest.raises(ValueError, match=r"\[grid\] dt"):
            load_config(path)

    def test_empty_tuple_value(self, tmp_path):
        path = write_config(tmp_path, "[forward]\nsnapshot_times =\n")
        assert load_config(path).forward.snapshot_times == ()

    def test_fixed_width_tuple_enforced(self, tmp_path):
        path = write_config(tmp_path, "[material]\nvelocity = 2.5\n")
        with pytest.raises(ValueError, match="2 comma-separated"):
            load_config(path)

    def test_int_tuple_parsed(self, tmp_path):
        path = write_config(tmp_path, "[gradcheck]\npair_indices = 3, 1\n")
        assert load_config(path).gradcheck.pair_indices == (3, 1)


class TestValidation:
    def test_bad_tau_profile(self):
        config = ExperimentConfig()
        config.material.tau = "linear"
        with pytest.raises(ValueError, match="unknown tau profile"):
            config.validate()

    def test_constant_profile_parsed(self):
        config = ExperimentConfig()
        config.material.tau = "constant:0.5"
        config.validate()

    def test_bad_method(self):
        config = ExperimentConfig()
        config.optimizer.method = "newton"
        with pytest.raises(ValueError, match="unknown optimizer method"):
            config.validate()

    def test_negative_budget(self):
        config = ExperimentConfig()
        config.optimizer.budget = -1
        with pytest.raises(ValueError, match="budget"):
            config.validate()

    def test_snapshot_outside_horizon(self):
        config = ExperimentConfig()
        config.forward.snapshot_times = (2.0,)
        with pytest.raises(ValueError, match="outside the horizon"):
            config.validate()

    def test_diffusion_list_mismatch(self):
        config = ExperimentConfig()
        config.diffusion.dts = (0.001,)
        with pytest.raises(ValueError, match="diffusion lists disagree"):
            config.validate()

    def test_omega_slice_needs_three(self):
        config = ExperimentConfig()
        config.forward.omega_slice = (0.1, 0.5)
        with pytest.raises(ValueError, match="omega_slice"):
            config.validate()

    def test_min_cos_range(self):
        config = ExperimentConfig()
        config.gradcheck.min_cos = 1.0
        with pytest.raises(ValueError, match="min_cos"):
            config.validate()


class TestAssembly:
    def test_preset_then_file_then_flags(self, tmp_path):
        path = write_config(tmp_path, "[optimizer]\nbudget = 7\n")
        config = assemble_config("sec52", path, seed=99)
        assert config.optimizer.budget == 7  # file overrides preset
        assert config.optimizer.seed == 99  # flag overrides file
        assert config.grid.t_end == 1.65  # preset survives elsewhere

    def test_fig5_preset_has_slice(self):
        config = assemble_config("fig5", None, None)
        assert config.forward.omega_slice == (0.12, 0.5, 0.9675)
        assert config.grid.epsilon == 0.1

    def test_fig1_preset_epsilon_ladder(self):
        config = assemble_config("fig1", None, None)
        assert config.diffusion.epsilons == (0.2, 0.1, 0.05)
        assert len(config.diffusion.dts) == 3

    # sha256 of each preset's effective config as config.ini echoes it.  A
    # changed default moves a paper study; this makes that change explicit.
    PRESET_INI_SHA256 = {
        "fig1": "5f8f6bc8cdff8cd186911a2378730335a9032148b46ebb36187e6d7ea28510bc",
        "fig4": "2f497efbe02d4a093674d4cb3531e2467f63b3cc542851e5be4d8a94e1835f17",
        "fig5": "f472ea2ad0f0f06a27a81f09e924b94ce7ed2e54c09446b9a18c103a81799f9b",
        "sec52": "5f8f6bc8cdff8cd186911a2378730335a9032148b46ebb36187e6d7ea28510bc",
    }

    @pytest.mark.parametrize("preset", sorted(PRESET_INI_SHA256))
    def test_preset_effective_config_is_frozen(self, preset):
        text = assemble_config(preset, None, None).to_ini()
        assert hashlib.sha256(text.encode()).hexdigest() == self.PRESET_INI_SHA256[preset]

    @pytest.mark.parametrize("preset", ["fig1", "sec52"])
    def test_default_studies_are_the_defaults(self, preset):
        assert assemble_config(preset, None, None) == assemble_config(None, None, None)

    def test_preset_names_only_known_keys(self, monkeypatch):
        monkeypatch.setitem(cli._PRESETS, "typo", "[grid]\nt_edn = 1.5\n")
        with pytest.raises(ValueError, match="unknown key 't_edn' in \\[grid\\]"):
            assemble_config("typo", None, None)


class TestForwardCommand:
    def test_zero_source_outputs_all_zero(self, tmp_path):
        config_path = write_config(tmp_path, """
[grid]
dt = 0.01
dx = 0.05
t_end = 0.2

[source]
amplitude = 0.0

[forward]
snapshot_times = 0.1, 0.2
omega_slice =
""")
        out = tmp_path / "out"
        assert main(["forward", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("snapshot_t0.1.csv", "snapshot_t0.2.csv", "boundary_trace.csv"):
            _, rows = read_csv(out / name)
            values = np.array([[float(v) for v in row[1:]] for row in rows])
            assert (values == 0.0).all(), name

    def test_snapshot_grid_layout(self, tmp_path):
        config = ExperimentConfig()
        config.grid.dt = 0.01
        config.grid.dx = 0.05
        config.grid.t_end = 0.1
        config.forward.snapshot_times = (0.1,)
        out = tmp_path / "fwd"
        out.mkdir()
        written = run_forward_demo(config, out)
        header, rows = read_csv(out / "snapshot_t0.1.csv")
        grid = config.make_grid()
        assert header[0] == "x"
        assert len(header) == 1 + grid.n_omega
        assert len(rows) == grid.n_x
        assert [Path(p).name for p in written].count("boundary_trace.csv") == 1

    def test_slice_time_must_match_snapshot(self, tmp_path):
        config_path = write_config(tmp_path, """
[grid]
dt = 0.01
dx = 0.05
t_end = 0.2

[forward]
snapshot_times = 0.2
omega_slice = 0.1, 0.5, 0.9
""")
        out = tmp_path / "out"
        rc = main(["forward", "--config", str(config_path), "--out", str(out)])
        assert rc == 1

    def test_repeated_snapshot_time_slices_the_state(self, tmp_path):
        # Every slot of a repeated snapshot time holds that node's state, so
        # the slice matches a run that asks for the time once.
        slices = []
        for times in ("0.1, 0.2", "0.1, 0.2, 0.2"):
            config_path = write_config(tmp_path, f"""
[grid]
dt = 0.01
dx = 0.05
t_end = 0.2

[forward]
snapshot_times = {times}
omega_slice = 0.2, 0.2, 0.96
""")
            out = tmp_path / f"out{len(slices)}"
            assert main(["forward", "--config", str(config_path), "--out", str(out)]) == 0
            _, rows = read_csv(out / "omega_slice.csv")
            slices.append(np.array([[float(v) for v in row] for row in rows]))
        assert np.abs(slices[0][:, 1]).max() > 0.0
        np.testing.assert_array_equal(slices[1], slices[0])

    def test_one_snapshot_file_per_distinct_node(self, tmp_path, capsys):
        # 0.2 is asked for twice and 0.2004 rounds to the same node.
        config_path = write_config(tmp_path, """
[grid]
dt = 0.01
dx = 0.05
t_end = 0.3

[forward]
snapshot_times = 0.1, 0.2, 0.2, 0.2004
""")
        out = tmp_path / "out"
        assert main(["forward", "--config", str(config_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("snapshot_t*.csv")) == [
            "snapshot_t0.1.csv", "snapshot_t0.2.csv",
        ]
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == len(set(listed))
        assert sum("snapshot_t" in line for line in listed) == 2
        assert summary_dict(out / "summary.csv")["n_snapshots"] == "2"

    def test_error_line_on_stderr(self, tmp_path, capsys):
        config_path = write_config(tmp_path, "[grid]\ndt = -1\n")
        rc = main(["forward", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")


class TestDiffusionCommand:
    # fig1's pulse on a coarse grid, with a short horizon and two epsilons.
    CHEAP_DIFFUSION_INI = """
[grid]
dx = 0.05
n_mu = 16

[diffusion]
epsilons = 0.4, 0.2
dts = 0.004, 0.002
t_end = 0.3
settle_time = 0.1
"""

    def test_outputs_and_byte_identical_rerun(self, tmp_path):
        config_path = write_config(tmp_path, self.CHEAP_DIFFUSION_INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            argv = ["diffusion", "--preset", "fig1", "--config", str(config_path),
                    "--out", str(out)]
            assert main(argv) == 0
        names = [
            "config.ini", "kappa_summary.csv", "macro_trace_eps0.2.csv",
            "macro_trace_eps0.4.csv", "residuals.csv", "summary.csv",
        ]
        assert sorted(p.name for p in out1.iterdir()) == names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

        config = assemble_config("fig1", config_path, None)
        d = config.diffusion
        for eps, dt in zip(d.epsilons, d.dts):
            grid = config.make_grid(dt=dt, t_end=d.t_end, epsilon=eps)
            header, rows = read_csv(out1 / f"macro_trace_eps{eps:g}.csv")
            assert header == ["t", "x", "q", "T", "dT_dx", "kappa", "kappa_defined"]
            assert len(rows) == grid.n_t * grid.n_x
        assert int(summary_dict(out1 / "summary.csv")["n_runs"]) == 2

    def test_kappa_undefined_where_flux_is_rounding_noise(self, tmp_path):
        # At the reflecting wall x = 1 the flux is rounding noise; a ratio
        # against it is no conductivity, so those rows must be flagged.
        config_path = write_config(tmp_path, self.CHEAP_DIFFUSION_INI)
        out = tmp_path / "out"
        assert main(["diffusion", "--preset", "fig1", "--config", str(config_path),
                     "--out", str(out)]) == 0
        for eps in ("0.4", "0.2"):
            _, rows = read_csv(out / f"macro_trace_eps{eps}.csv")
            x = np.array([float(row[1]) for row in rows])
            q = np.array([float(row[2]) for row in rows])
            kappa = np.array([float(row[5]) for row in rows])
            defined = np.array([row[6] == "1" for row in rows])
            noise = np.abs(q) < 1e-8 * np.abs(q).max()
            assert (noise & (x == 1.0)).any()
            assert not (noise & defined).any()
            assert np.isnan(kappa[noise]).all()
            assert defined[x == 0.5].any()

    @pytest.mark.parametrize("key, value, message", [
        ("x_probe", "-5.0", "x_probe = -5.0 lies outside the slab"),
        ("x_probe", "2.0", "x_probe = 2.0 lies outside the slab"),
        ("settle_time", "0.3", "settle_time = 0.3 is not before t_end"),
        ("settle_time", "0.5", "settle_time = 0.5 is not before t_end"),
    ])
    def test_probe_outside_the_run_refused_before_any_march(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a march ran before the config was refused")

        monkeypatch.setattr(cli, "compute_macro_trace", refuse)
        ini = self.CHEAP_DIFFUSION_INI.replace("settle_time = 0.1\n", "")
        config_path = write_config(tmp_path, f"{ini}{key} = {value}\n")
        argv = ["diffusion", "--preset", "fig1", "--config", str(config_path),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"error: [diffusion] {message}" in capsys.readouterr().err


class TestGenerateData:
    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_PAIR_INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["generate-data", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["generate-data", "--config", str(config_path), "--out", str(out2)]) == 0
        for name in ("config.ini", "pairs.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_blas_thread_count_leaves_bytes_unchanged(self, tmp_path):
        # Each readout is one BLAS matrix product; its result must not depend
        # on how many threads OpenBLAS splits it over.
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "phonon_inverse.cli", "generate-data",
                 "--preset", "sec52", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr[-4000:]
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert "pairs.csv" in outputs["1"]
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("section, key, value", [
        ("pairs", "test_width", "nan"),
        ("grid", "epsilon", "inf"),
        ("grid", "t_end", "nan"),
        ("gradcheck", "step", "inf"),
        ("source", "amplitude", "inf"),
        ("source", "amplitude", "nan"),
        ("diffusion", "x_probe", "nan"),
        ("diffusion", "settle_time", "inf"),
        ("material", "velocity", "2.5,-inf"),
    ])
    def test_nonfinite_parameter_refused_by_name(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        argv = ["generate-data", "--preset", "sec52", "--config", str(path),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("dx", "5.0"), ("dt", "10.0")])
    def test_spacing_wider_than_its_span_refused_by_name(self, tmp_path, capsys, key, value):
        # Either axis would get a single node.
        path = write_config(tmp_path, f"[grid]\n{key} = {value}\n")
        argv = ["generate-data", "--preset", "sec52", "--config", str(path),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"{key} = {value} is wider than its span" in capsys.readouterr().err

    def test_datum_matches_library_path(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_PAIR_INI)
        out = tmp_path / "out"
        assert main(["generate-data", "--config", str(config_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "pairs.csv")
        assert header[0] == "pair_id" and header[-1] == "datum"
        assert len(rows) == 1

        grid = build_grid(GridConfig(
            dt=0.005, dx=0.02, domega=0.4, n_mu=64, t_end=0.92,
            omega_min=0.4, omega_max=4.0,
        ))
        star = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
        pairs = generate_data(star, grid, frequency_sweep_pairs(
            star, omega_centers=np.array([0.4]), t0=0.02, mu0=0.99, test_width=0.02,
        ))
        assert float(rows[0][-1]) == pytest.approx(pairs[0].datum, rel=1e-15)


class TestReconstructCommand:
    def test_budget_zero_emits_initial_state_only(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_PAIR_INI + "\n[optimizer]\nbudget = 0\n")
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(config_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "history.csv")
        assert header[0] == "iteration"
        assert len(rows) == 1 and rows[0][0] == "0"
        snap_header, snap_rows = read_csv(out / "tau_snapshots.csv")
        assert snap_header == ["omega", "n0"]
        summary = summary_dict(out / "summary.csv")
        assert summary["error_initial"] == summary["error_final"]
        assert int(summary["iterations_run"]) == 0

    def test_short_run_history_and_snapshots(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_PAIR_INI + """
[optimizer]
budget = 3
snapshot_stride = 2
alpha_max = 1e9
""")
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(config_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "history.csv")
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        losses = [float(row[header.index("loss_total")]) for row in rows]
        assert losses[-1] < losses[0]
        snap_header, snap_rows = read_csv(out / "tau_snapshots.csv")
        assert snap_header == ["omega", "n0", "n2", "n3"]
        assert len(snap_rows) == 10
        final_header, final_rows = read_csv(out / "tau_final.csv")
        assert final_header == ["omega", "tau", "tau_true"]
        last_column = [float(row[-1]) for row in snap_rows]
        assert last_column == [float(row[1]) for row in final_rows]


class TestGradCommands:
    def test_grad_check_outputs(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_PAIR_INI + """
[gradcheck]
pair_indices = 0
directions = 1
""")
        out = tmp_path / "out"
        assert main(["grad-check", "--config", str(config_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "fd_table.csv")
        assert len(rows) == 1
        rel = float(rows[0][header.index("rel_error")])
        assert rel < 0.10
        summary = summary_dict(out / "summary.csv")
        assert float(summary["worst_rel_error"]) == pytest.approx(rel, rel=1e-12)
        gradient_header, gradient_rows = read_csv(out / "gradients.csv")
        assert gradient_header == ["omega", "pair_0"]
        assert len(gradient_rows) == 10

    def test_grad_check_index_out_of_range(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_PAIR_INI + """
[gradcheck]
pair_indices = 5
""")
        rc = main(["grad-check", "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_grad_diagnostics_outputs(self, tmp_path):
        config_path = write_config(tmp_path, """
[grid]
t_end = 0.95

[forward]
snapshot_times =

[pairs]
t0 = 0.02
mu0 = 0.99
test_width = 0.02
omega_centers = 0.4, 0.8
""")
        out = tmp_path / "out"
        assert main(["grad-diagnostics", "--config", str(config_path), "--out", str(out)]) == 0
        _, norm_rows = read_csv(out / "norms.csv")
        assert len(norm_rows) == 2
        header, cosine_rows = read_csv(out / "cosines_raw.csv")
        assert header == ["pair_id", "pair_0", "pair_1"]
        matrix = np.array([[float(v) for v in row[1:]] for row in cosine_rows])
        assert matrix == pytest.approx(matrix.T)
        assert matrix[0, 0] == pytest.approx(1.0)
        summary = summary_dict(out / "summary.csv")
        assert set(summary) >= {
            "norm_ratio_spread_raw", "norm_ratio_spread_recombined",
            "min_cosine_raw", "min_cosine_recombined",
            "spread_improved", "min_cosine_improved",
        }
