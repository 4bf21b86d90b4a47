"""Tests for the command-line front end.

Everything drives ``main`` in-process except the packaging wire-up
test: it checks the ``toruslab`` entry point declared in
``pyproject.toml``, runs that target in a fresh interpreter the way the
installed script would, and also runs the installed script itself when
one is on ``PATH``. Verify subsets use the default N=256 battery, which
1D transforms keep fast.
"""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toruslab
import toruslab.verify as verify_module
from toruslab.cli import (
    RunConfig,
    _fuse_negative_values,
    _parse_boxes,
    _parse_floats,
    build_parser,
    main,
)
from toruslab.corpus import default_corpus_specs, spec_to_payload, specs_from_manifest
from toruslab.fieldio import read_field, sha256_hex, write_field
from toruslab.norms import NORMS, BoxFamily
from toruslab.spectral import Field, TorusGrid
from toruslab.verify import Workspace


def config_from_payload(payload: dict) -> RunConfig:
    """The RunConfig that a run_config.json payload serializes."""
    data = dict(payload)
    if data.get("boxes") is not None:
        data["boxes"] = tuple(data["boxes"])
    data["alphas"] = tuple(data.get("alphas", ()))
    data["betas"] = tuple(data.get("betas", ()))
    return RunConfig(**data)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def mode_file(tmp_path_factory) -> Path:
    grid = TorusGrid(dims=1, size=256, length=1.0)
    x = grid.coordinates()[0]
    f = Field(grid, np.cos(2.0 * np.pi * 3.0 * x))
    path = tmp_path_factory.mktemp("fields") / "mode3.bin"
    write_field(f, path)
    return path


class TestArgPlumbing:
    def test_negative_list_values_fused(self):
        argv = ["verify", "--theorem", "2.1", "--alpha", "-0.5,0,0.5"]
        fused = _fuse_negative_values(argv)
        assert fused == ["verify", "--theorem", "2.1", "--alpha=-0.5,0,0.5"]

    def test_positive_values_left_alone(self):
        argv = ["verify", "--alpha", "0.25,0.5", "--beta", "-0.25"]
        fused = _fuse_negative_values(argv)
        assert fused == ["verify", "--alpha", "0.25,0.5", "--beta=-0.25"]

    def test_trailing_flag_untouched(self):
        assert _fuse_negative_values(["ns", "--alpha"]) == ["ns", "--alpha"]

    def test_spec_shaped_invocation_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            _fuse_negative_values(
                ["verify", "--theorem", "2.1", "--alpha", "-0.5,0,0.5"]
            )
        )
        assert args.theorem == "2.1"
        assert args.alpha == (-0.5, 0.0, 0.5)

    def test_parse_floats(self):
        assert _parse_floats("1,2.5") == (1.0, 2.5)
        with pytest.raises(ValueError):
            _parse_floats(",")
        with pytest.raises(ValueError):
            _parse_floats("abc")

    def test_parse_boxes(self):
        assert _parse_boxes("1:4:8") == (1, 4, 8)
        with pytest.raises(ValueError):
            _parse_boxes("1:4")

    def test_threads_refused_outside_verify(self, mode_file, tmp_path, capsys):
        # only verify runs a pool; the other commands take no --threads
        for argv in (["corpus"], ["norm", "--norm", "campanato", "--input", str(mode_file)],
                     ["ns", "--probe", "smalldata"]):
            out = tmp_path / argv[0]
            with pytest.raises(SystemExit) as err:
                main(argv + ["--threads", "2", "--out", str(out)])
            assert err.value.code == 2
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
            assert not out.exists()
        out = tmp_path / "verify"
        assert main(["verify", "--theorem", "4.2", "--alpha", "0.5", "--no-refine",
                     "--threads", "1", "--out", str(out)]) == 0
        assert json.loads((out / "run_config.json").read_text())["threads"] == 1

    def test_options_refused_where_they_do_nothing(self, mode_file, tmp_path, capsys):
        # corpus measures no box norm and norm draws nothing: corpus takes
        # no --boxes and norm no --seed, and their run configs keep the
        # defaults
        for argv, flag in ((["corpus", "--grid", "128"], ["--boxes", "1:3:1"]),
                           (["norm", "--norm", "campanato", "--input", str(mode_file)],
                            ["--seed", "3"])):
            out = tmp_path / argv[0]
            with pytest.raises(SystemExit) as err:
                main(argv + flag + ["--out", str(out)])
            assert err.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
            assert not out.exists()
            assert main(argv + ["--out", str(out)]) == 0
            config = json.loads((out / "run_config.json").read_text())
            assert (config["boxes"], config["seed"]) == (None, 0)

    def test_bad_choices_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--theorem", "9.9", "--out", "/tmp/x"])
        assert err.value.code == 2

    def test_bad_seed_reports_error(self, capsys):
        code = main(["corpus", "--seed", "-1", "--out", "/tmp/never-used"])
        assert code == 2
        assert "seed" in capsys.readouterr().err


class TestRunConfig:
    def test_payload_round_trip(self):
        config = RunConfig(
            command="verify", grid=128, dims=2, alphas=(0.25, -0.5),
            betas=(0.5,), boxes=(1, 4, 2), corpus="m.json", out="d",
            seed=7, threads=2, options={"theorem": "2.1", "no_refine": True},
        )
        back = config_from_payload(json.loads(json.dumps(config.to_payload())))
        assert back == config

    def test_seed_bounds(self):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(command="corpus", seed=2**64)
        with pytest.raises(ValueError, match="seed"):
            RunConfig(command="corpus", seed=-1)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_refused(self, threads, tmp_path, capsys):
        with pytest.raises(ValueError, match="--threads must be at least 1"):
            RunConfig(command="verify", threads=threads)
        out = tmp_path / "verify"
        code = main(["verify", "--theorem", "2.1", "--no-refine",
                     "--threads", str(threads), "--out", str(out)])
        assert code == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_box_family(self):
        config = RunConfig(command="norm", grid=64, dims=1, boxes=(2, 4, 2))
        grid = config.torus_grid()
        family = config.box_family(grid)
        assert family.j_values == (2, 3, 4)
        assert family.stride == 2
        default = RunConfig(command="norm", grid=64, dims=1).box_family(grid)
        assert default.j_values == BoxFamily.default(grid).j_values


class TestCorpusCommand:
    def test_member_files_and_manifest(self, corpus_dir):
        members = sorted(corpus_dir.glob("member_*.bin"))
        assert len(members) == 20
        assert (corpus_dir / "manifest.json").exists()
        assert (corpus_dir / "run_config.json").exists()
        f = read_field(members[0])
        assert f.grid.size == 256 and f.grid.dims == 1

    def test_manifest_hashes_match_binaries(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert len(manifest["functions"]) == 20
        members = sorted(corpus_dir.glob("member_*.bin"))
        for entry, path in zip(manifest["functions"], members):
            assert entry["sha256"] == sha256_hex(read_field(path).samples)

    def test_manifest_specs_round_trip(self, corpus_dir):
        loaded = specs_from_manifest(corpus_dir / "manifest.json")
        want = default_corpus_specs(0)
        assert [spec_to_payload(s) for s in loaded] == [
            spec_to_payload(s) for s in want
        ]

    def test_reruns_byte_identical(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["corpus", "--out", str(again)]) == 0
        for path in sorted(corpus_dir.glob("member_*.bin")):
            assert (again / path.name).read_bytes() == path.read_bytes()


class TestNormCommand:
    def test_matches_library_bit_exactly(self, mode_file, capsys):
        code = main([
            "norm", "--norm", "campanato", "--alpha", "0.25",
            "--input", str(mode_file),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        f = read_field(mode_file)
        want = NORMS["campanato"].value(f, 0.25, BoxFamily.default(f.grid))
        assert payload["result"]["value"] == want

    def test_constant_input_value_zero(self, tmp_path, capsys):
        grid = TorusGrid(dims=1, size=64, length=1.0)
        path = tmp_path / "const.bin"
        write_field(Field(grid, np.full(grid.shape, 2.5)), path)
        code = main(["norm", "--norm", "campanato", "--input", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["value"] == 0.0

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        code = main([
            "norm", "--norm", "campanato",
            "--input", str(tmp_path / "absent.bin"),
        ])
        assert code == 2
        assert "absent.bin" in capsys.readouterr().err

    def test_box_below_mesh_floor_exits_2(self, tmp_path, capsys):
        # at N=8192 the j=12 box height 2^-24 is under the default mesh
        # floor 2^-22, and the norm refuses it before any transform
        grid = TorusGrid(dims=1, size=8192, length=1.0)
        path = tmp_path / "fine.bin"
        write_field(Field(grid, np.cos(2 * np.pi * grid.coordinates()[0])), path)
        code = main(["norm", "--norm", "inverse", "--alpha=-0.5", "--input", str(path)])
        assert code == 2
        assert "below the mesh floor 2.38419e-07" in capsys.readouterr().err

    def test_stack_norm_below_mesh_floor_refused_before_any_stack(
            self, tmp_path, capsys, monkeypatch):
        # the j=12 box height r^2 = 2^-24 is under the heat mesh floor 2^-22,
        # so t refuses the family before any extension chunk is drawn
        import toruslab.extensions

        def refuse(*args, **kwargs):
            raise AssertionError("a _semigroup chunk was drawn")

        monkeypatch.setattr(toruslab.extensions, "_semigroup", refuse)
        grid = TorusGrid(dims=1, size=8192, length=1.0)
        path = tmp_path / "fine.bin"
        write_field(Field(grid, np.cos(2 * np.pi * grid.coordinates()[0])), path)
        code = main(["norm", "--norm", "t", "--input", str(path)])
        assert code == 2
        assert "below the mesh floor 2.38419e-07" in capsys.readouterr().err

    def test_out_directory_written(self, mode_file, tmp_path, capsys):
        out = tmp_path / "report"
        code = main([
            "norm", "--norm", "inverse", "--alpha=-0.5", "--horizon", "1.0",
            "--input", str(mode_file), "--out", str(out),
        ])
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads((out / "norm.json").read_text())
        assert file_payload == stdout_payload
        config = json.loads((out / "run_config.json").read_text())
        assert config["command"] == "norm"
        assert config["alphas"] == [-0.5]

    @pytest.mark.parametrize("flag", [["--grid", "128"], ["--dims", "2"], ["--length", "2"]])
    def test_grid_flags_refused(self, mode_file, flag, capsys):
        # the grid is the input file's: norm takes no grid options
        with pytest.raises(SystemExit) as err:
            main(["norm", "--norm", "h", "--input", str(mode_file)] + flag)
        assert err.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_out_records_the_header_grid(self, tmp_path, capsys):
        # a 2-D N=32 field of side 2 is measured, and recorded, on its own grid
        grid = TorusGrid(dims=2, size=32, length=2.0)
        path = tmp_path / "field2d.bin"
        x, y = grid.coordinates()
        write_field(Field(grid, np.cos(np.pi * x) * np.sin(np.pi * y)), path)
        out = tmp_path / "norm2d"
        assert main(["norm", "--norm", "h", "--input", str(path), "--out", str(out)]) == 0
        config = json.loads((out / "run_config.json").read_text())
        assert (config["grid"], config["dims"], config["length"]) == (32, 2, 2.0)
        assert json.loads(capsys.readouterr().out)["result"]["arg_radius"] <= 1.0

    def test_horizon_inf_is_the_default(self, mode_file, tmp_path, capsys):
        out = tmp_path / "inf"
        code = main([
            "norm", "--norm", "inverse", "--alpha=-0.5", "--horizon", "inf",
            "--input", str(mode_file), "--out", str(out),
        ])
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert json.loads((out / "norm.json").read_text()) == stdout_payload
        config = json.loads((out / "run_config.json").read_text())
        assert config["options"]["horizon"] is None
        assert main(["norm", "--norm", "inverse", "--alpha=-0.5",
                     "--input", str(mode_file)]) == 0
        assert json.loads(capsys.readouterr().out) == stdout_payload

    @pytest.mark.parametrize("argv", [
        ["norm", "--norm", "inverse", "--horizon", "nan", "--input", "f.bin"],
        ["norm", "--norm", "inverse", "--horizon=-inf", "--input", "f.bin"],
        ["verify", "--spread-max", "inf"],
        ["verify", "--drift-max", "inf"],
        ["verify", "--alpha", "0,inf"],
        ["ns", "--probe", "smalldata", "--ratio-max", "inf"],
        ["ns", "--probe", "smalldata", "--deltas", "0,nan"],
    ])
    def test_non_finite_options_refused(self, argv, capsys):
        # run_config.json is strict JSON: a NaN or infinity stops at parsing
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "is not a finite number" in capsys.readouterr().err

    def test_stack_and_sup_norms_run(self, mode_file, capsys):
        for name in ("scaled_t", "bloch_hb", "besov", "q"):
            alpha = "0.25" if name != "q" else "0.5"
            code = main([
                "norm", "--norm", name, "--alpha", alpha,
                "--input", str(mode_file),
            ])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["result"]["value"] > 0

    def test_q_on_2d_n128_corpus_member(self, tmp_path, capsys):
        out = tmp_path / "corpus2d"
        assert main(["corpus", "--dims", "2", "--grid", "128", "--out", str(out)]) == 0
        capsys.readouterr()
        member = out / "member_00_frac_noise.bin"
        assert main(["norm", "--norm", "q", "--alpha", "0.5", "--input", str(member)]) == 0
        value = json.loads(capsys.readouterr().out)["result"]["value"]
        assert math.isfinite(value) and value > 0


class TestNormRegistry:
    """The norm subcommand and the verify workspace resolve every name
    through the one registry, so they agree bit for bit."""

    def test_norm_choices_are_the_registry(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        (norm,) = [a for a in commands.choices["norm"]._actions if a.dest == "norm"]
        assert sorted(norm.choices) == sorted(NORMS)

    def test_every_norm_matches_workspace(self, tmp_path, capsys):
        grid = TorusGrid(dims=1, size=128, length=1.0)
        spec = default_corpus_specs(0)[3]
        ws = Workspace([spec], grid, threads=1)
        path = write_field(ws.field(spec.label()), tmp_path / "member.bin")
        verify_module._run_tasks(ws._tasks({spec.label(): [(name, 0.25) for name in NORMS]}),
                                 ws.threads)
        for name in NORMS:
            argv = ["norm", "--norm", name, "--alpha", "0.25", "--input", str(path)]
            assert main(argv) == 0, name
            got = json.loads(capsys.readouterr().out)["result"]["value"]
            assert got == ws.norm(name, spec.label(), 0.25), name


class TestVerifyCommand:
    def test_subset_passes(self, tmp_path, capsys):
        out = tmp_path / "v42"
        code = main([
            "verify", "--theorem", "4.2", "--alpha", "-0.5,0.5",
            "--no-refine", "--out", str(out),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + one per alpha
        assert all(row.endswith("True") for row in rows[1:])

    def test_impossible_spread_threshold_fails(self, tmp_path, capsys):
        out = tmp_path / "vfail"
        code = main([
            "verify", "--theorem", "4.2", "--alpha", "0.5",
            "--spread-max", "1.0", "--no-refine", "--out", str(out),
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_refinement_drift_reported(self, tmp_path):
        out = tmp_path / "v22"
        code = main([
            "verify", "--theorem", "2.2", "--alpha", "0.0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(next(iter(out.glob("report_2_2*.json"))).read_text())
        assert report["drift"] is not None
        assert report["passed"]

    def test_scaling_matrix_endpoint_unenforced(self, tmp_path):
        out = tmp_path / "vscale"
        code = main([
            "verify", "--theorem", "scaling", "--alpha", "-0.5,-0.25,0.25",
            "--out", str(out),
        ])
        assert code == 0
        endpoint = json.loads(
            (out / "report_scaling_campanato_am0_50.json").read_text()
        )
        assert endpoint["enforced"] is False
        assert endpoint["passed"] is True
        enforced = json.loads(
            (out / "report_scaling_campanato_am0_25.json").read_text()
        )
        assert enforced["enforced"] is True
        assert abs(enforced["measured_exponent"] - (-0.25)) <= 0.05
        invariant = json.loads(
            (out / "report_scaling_inverse_ap0_25.json").read_text()
        )
        assert abs(invariant["measured_exponent"]) <= 0.05

    def test_scaling_rows_pass_at_n128(self, tmp_path):
        # a bump width fixed in cells (10.24/N, 0.08 here) would fail three
        # alpha = -0.25 rows on this grid, which pass with the fixed width
        out = tmp_path / "vscale128"
        code = main([
            "verify", "--theorem", "scaling", "--grid", "128", "--no-refine",
            "--out", str(out),
        ])
        assert code == 0

    def test_under_resolved_scaling_field_refused(self, tmp_path, capsys, monkeypatch):
        # at N=64 the width-0.04 bump's rescale g(2x) is not mean-free: the
        # row is refused, naming itself and the grid, before any member task
        def no_work(*args, **kwargs):
            raise AssertionError("evaluated before the scaling rows were checked")

        monkeypatch.setattr(verify_module, "_run_tasks", no_work)
        out = tmp_path / "vscale64"
        assert main(["verify", "--theorem", "scaling", "--grid", "64", "--no-refine",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("error: scaling row campanato at alpha -0.5: the rescale of its field is "
                "not mean-free at N=64, because the field is under-resolved") in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,levels", [
        (["--theorem", "2.1", "--alpha", "0.251,0.254", "--grid", "128", "--no-refine"],
         "0.251, 0.254"),
        (["--theorem", "2.1", "--alpha", "0.25,0.25"], "0.25, 0.25"),
        (["--theorem", "inclusions", "--beta", "0.5,0.501"], "0.5, 0.501"),
        (["--theorem", "scaling", "--alpha=-0.251,-0.254"], "-0.254, -0.251"),
    ], ids=["alpha", "repeated", "beta", "scaling"])
    def test_levels_sharing_a_report_file_refused(self, argv, levels, tmp_path,
                                                  capsys, monkeypatch):
        # report files name the level to two decimals: levels equal to two
        # decimals would overwrite each other's reports, so the run is
        # refused before any member is generated or evaluated
        def no_work(*args, **kwargs):
            raise AssertionError("evaluated before the levels were checked")

        monkeypatch.setattr(verify_module, "generate", no_work)
        monkeypatch.setattr(verify_module, "_run_tasks", no_work)
        out = tmp_path / "vclash"
        assert main(["verify"] + argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "reports would overwrite each other" in err and f"levels {levels} " in err
        assert not out.exists()

    def test_corpus_manifest_flag(self, corpus_dir, tmp_path):
        out = tmp_path / "vman"
        code = main([
            "verify", "--theorem", "4.2", "--alpha", "0.5", "--no-refine",
            "--corpus", str(corpus_dir / "manifest.json"), "--out", str(out),
        ])
        assert code == 0

    def test_same_config_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "vdet"
        argv = [
            "verify", "--theorem", "4.2", "--alpha", "-0.25",
            "--no-refine", "--out", str(out),
        ]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


class TestNsCommand:
    def test_smalldata_outputs(self, tmp_path, capsys):
        out = tmp_path / "small"
        code = main([
            "ns", "--probe", "smalldata", "--grid", "16", "--nodes", "32",
            "--deltas", "0,0.5,32", "--alpha=-0.5", "--out", str(out),
        ])
        assert code == 0
        assert "threshold 0.5" in capsys.readouterr().out
        payload = json.loads((out / "smalldata.json").read_text())
        assert payload["threshold"] == 0.5
        # the delta=32 rung diverges: no X-norm and no ratio
        assert payload["rows"][2]["x_norm"] is None
        assert payload["rows"][2]["ratio"] is None
        rows = (out / "smalldata.csv").read_text().strip().splitlines()
        assert rows[0] == "delta,converged,x_norm,ratio"
        assert len(rows) == 4
        assert rows[3] == "32.0,False,,"

    def test_inflation_null_control(self, tmp_path):
        out = tmp_path / "inf"
        code = main([
            "ns", "--probe", "inflation", "--grid", "16", "--modes", "1",
            "--eps", "1.0", "--horizon", "0.05", "--steps", "300",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "inflation.json").read_text())
        assert payload["growth_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert payload["resolved"] is True

    def test_run_exports_trace(self, tmp_path):
        out = tmp_path / "tg"
        code = main([
            "ns", "--probe", "run", "--grid", "16", "--data", "taylor-green",
            "--amplitude", "0.05", "--horizon", "0.05", "--nodes", "32",
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "trace" / "manifest.json").read_text())
        assert len(manifest["nodes"]) == 32
        assert manifest["converged"] is True
        assert manifest["config"]["solver"] == "picard"
        first = read_field(out / "trace" / manifest["nodes"][0]["files"][0])
        assert first.grid.dims == 3 and first.grid.size == 16
        energies = manifest["energies"]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_diverged_run_exports_null_residual(self, tmp_path):
        out = tmp_path / "div"
        code = main([
            "ns", "--probe", "run", "--grid", "16", "--data", "random",
            "--amplitude", "2000", "--nodes", "32", "--out", str(out),
        ])
        assert code == 0
        text = (out / "trace" / "manifest.json").read_text()
        manifest = json.loads(text)
        assert manifest["converged"] is False
        # the overflowed sweep's residual is null, never Infinity
        assert manifest["residuals"][-1] is None
        assert "Infinity" not in text and "NaN" not in text

    def test_linear_only_run(self, tmp_path):
        out = tmp_path / "lin"
        code = main([
            "ns", "--probe", "run", "--grid", "16", "--data", "random",
            "--amplitude", "0.1", "--solver", "ifrk4", "--steps", "64",
            "--linear-only", "--horizon", "0.05", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "trace" / "manifest.json").read_text())
        assert manifest["config"]["nonlinear"] is False
        assert manifest["config"]["solver"] == "ifrk4"

    def test_out_of_block_data_refused(self, tmp_path, capsys):
        # band 6 crosses the 2/3 cut at floor(16/3) = 5
        out = tmp_path / "wide"
        code = main([
            "ns", "--probe", "run", "--grid", "16", "--max-freq", "6",
            "--nodes", "32", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: velocity data has relative L2 ")
        assert "outside the kept 2/3 block" in err
        assert not (out / "trace").exists()

    def test_wrong_dims_rejected(self, capsys):
        code = main([
            "ns", "--probe", "smalldata", "--grid", "16", "--dims", "1",
            "--out", "/tmp/never-used",
        ])
        assert code == 2
        assert "dims 3" in capsys.readouterr().err


def _declared_scripts() -> dict:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_script_installed(tmp_path):
    entry = _declared_scripts()["toruslab"]
    assert entry == "toruslab.cli:main"
    module, attr = entry.split(":")
    assert getattr(importlib.import_module(module), attr) is main

    # Run the declared target in a fresh interpreter, as the generated
    # console-script shim does, against the same code this test imported.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(toruslab.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    shim = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    runs = [([sys.executable, "-c", shim], {"cwd": tmp_path, "env": env})]
    # An installed script also gets the original end-to-end run, as is.
    if shutil.which("toruslab") is not None:
        runs.append((["toruslab"], {}))
    for i, (command, where) in enumerate(runs):
        result = subprocess.run(
            command + ["corpus", "--grid", "128", "--out", str(tmp_path / f"c{i}")],
            capture_output=True, text=True, **where,
        )
        assert result.returncode == 0, result.stderr
        assert "wrote 20 members" in result.stdout
