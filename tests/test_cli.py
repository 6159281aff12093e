import argparse
import contextlib
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepwarp import cli, dataset
from deepwarp.cli import main, parse_config_file
from deepwarp.dataset import read_dataset_file
from deepwarp.dynamics import ConvergenceError
from deepwarp.features import ForceField
from deepwarp.material import MaterialModel, MaterialParams
from deepwarp.mesh import TetMesh, load_mesh_files, write_mesh_files
from deepwarp.meshgen import beam, partition_by_axis, t_shape
from deepwarp.net import load_network_file
from deepwarp.warper import METHODS, compare_methods


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    mesh = beam(3, 2, 2, lengths=(2.0, 1.0, 1.0))
    paths = {k: root / f"beam.{k}" for k in ("node", "ele", "anchor")}
    with open(paths["node"], "w") as n, open(paths["ele"], "w") as e, \
            open(paths["anchor"], "w") as a:
        write_mesh_files(mesh, n, e, a)
    part = partition_by_axis(mesh, 0, [1.0])
    paths["part"] = root / "beam.part"
    with open(paths["part"], "w") as f:
        for label in part.labels:
            f.write(f"{label}\n")
    return {k: str(v) for k, v in paths.items()}


def mesh_flags(mesh_files):
    return ["--nodes", mesh_files["node"], "--elements", mesh_files["ele"],
            "--anchors", mesh_files["anchor"]]


class TestConfig:
    def test_key_value_and_include(self, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text("youngs = 500\npoisson = 0.3\n")
        top = tmp_path / "top.cfg"
        top.write_text(f"include = {base}\npoisson = 0.4  # override\n")
        values = parse_config_file(str(top))
        assert values == {"youngs": "500", "poisson": "0.4"}

    def test_include_cycle_rejected(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(f"include = {b}\n")
        b.write_text(f"include = {a}\n")
        assert main(["info", "--config", str(a)]) == 1

    def test_diamond_include_is_not_a_cycle(self, tmp_path):
        d = tmp_path / "d.cfg"
        d.write_text("youngs = 500\n")
        for name, poisson in (("b", "0.3"), ("c", "0.4")):
            (tmp_path / f"{name}.cfg").write_text(f"include = {d}\npoisson = {poisson}\n")
        a = tmp_path / "a.cfg"
        a.write_text(f"include = {tmp_path / 'b.cfg'}\ninclude = {tmp_path / 'c.cfg'}\n")
        assert parse_config_file(str(a)) == {"youngs": "500", "poisson": "0.4"}

    def test_non_integer_count_rejected(self, tmp_path, mesh_files, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("ramp_poses = 2.7\n")
        code = main(["gen-data", "--config", str(cfgfile), "--out",
                     str(tmp_path / "d.dwtp")] + mesh_flags(mesh_files))
        assert code == 1
        assert "ramp_poses" in capsys.readouterr().err
        assert not (tmp_path / "d.dwtp").exists()

    def test_every_flag_reaches_the_config(self, monkeypatch):
        class Captured(Exception):
            pass

        def capture(cls, *args):
            raise Captured(from_args(*args).values)

        from_args = cli.RunConfig.from_args
        monkeypatch.setattr(cli.RunConfig, "from_args", classmethod(capture))
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            keys = [a.dest for a in sub._actions if a.option_strings
                    and a.dest not in ("help", "config", "seed", "quiet")]
            argv = [name] + [x for k in keys for x in (f"--{k.replace('_', '-')}", k)]
            with pytest.raises(Captured) as got:
                main(argv)
            assert got.value.args[0] == {k: k for k in keys}, name

    def test_boolean_words(self):
        words = {"1": True, "TRUE": True, " yes ": True, "On": True,
                 "0": False, "false": False, "No": False, "off": False}
        for word, value in words.items():
            assert cli.RunConfig({"include_circular": word}).getbool("include_circular") \
                is value
        assert cli.RunConfig({}).getbool("include_circular") is False
        for word in ("ture", "", "2", "y"):
            with pytest.raises(cli.ConfigError, match="include_circular"):
                cli.RunConfig({"include_circular": word}).getbool("include_circular")

    def test_misspelled_boolean_is_validation_error(self, tmp_path, mesh_files, capsys):
        out = tmp_path / "d.dwtp"
        code = main(["gen-data", "--include-circular", "ture", "--out", str(out)]
                    + mesh_flags(mesh_files))
        assert code == 1
        assert "not a boolean" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_is_validation_error(self, tmp_path, mesh_files, capsys):
        cfgfile = tmp_path / "latin1.cfg"
        cfgfile.write_bytes(b"# gr\xfc\xdfe\nyoungs = 500\n")
        code = main(["info", "--config", str(cfgfile)] + mesh_flags(mesh_files))
        assert code == 1
        assert f"error: {cfgfile} line 1: not UTF-8 text" in capsys.readouterr().err
        with pytest.raises(cli.ConfigError, match="line 1: not UTF-8 text"):
            parse_config_file(str(cfgfile))
        # an included file is named itself
        top = tmp_path / "top.cfg"
        top.write_text(f"poisson = 0.3\ninclude = {cfgfile}\n")
        assert main(["info", "--config", str(top)] + mesh_flags(mesh_files)) == 1
        assert f"error: {cfgfile} line 1: not UTF-8 text" in capsys.readouterr().err

    def test_flags_override_file(self, tmp_path, mesh_files, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("youngs = 1\n")
        code = main(["info", "--config", str(cfgfile)] + mesh_flags(mesh_files))
        assert code == 0
        assert "tets" in capsys.readouterr().out


class TestInfo:
    def test_reports_mesh_stats(self, mesh_files, capsys):
        assert main(["info"] + mesh_flags(mesh_files)) == 0
        out = capsys.readouterr().out
        assert "12 tets" in out or "72 tets" in out


class TestFeaturesCommand:
    def test_csv_output(self, mesh_files, tmp_path):
        out = tmp_path / "features.csv"
        code = main(["features"] + mesh_flags(mesh_files) +
                    ["--field-direction", "0,-1,0", "--out", str(out), "--quiet"])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "node,g,p,d"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 36      # 4x3x3 grid nodes
        g = np.array([float(r[1]) for r in rows])
        assert g.min() == 0.0 and g.max() == 1.0

    def test_missing_out_is_validation_error(self, mesh_files):
        assert main(["features"] + mesh_flags(mesh_files)) == 1

    def test_non_utf8_mesh_file_is_validation_error(self, mesh_files, tmp_path, capsys):
        node = tmp_path / "latin1.node"
        with open(mesh_files["node"], "rb") as f:
            node.write_bytes(b"# ma\xdfe\n" + f.read())
        code = main(["features", "--nodes", str(node), "--elements", mesh_files["ele"],
                     "--anchors", mesh_files["anchor"], "--field-direction", "0,-1,0",
                     "--out", str(tmp_path / "features.csv"), "--quiet"])
        assert code == 1
        assert f"error: {node} line 1: not UTF-8 text" in capsys.readouterr().err

    def test_unwritable_out_is_io_error(self, mesh_files):
        code = main(["features"] + mesh_flags(mesh_files) +
                    ["--field-direction", "0,-1,0",
                     "--out", "/nonexistent-dir/features.csv", "--quiet"])
        assert code == 3


@pytest.fixture(scope="module")
def disjoint_mesh_flags(tmp_path_factory):
    """Two disjoint beam(2, 1, 1) copies with only the first one anchored."""
    one = beam(2, 1, 1)
    nodes = np.vstack([one.nodes, one.nodes + [10.0, 0.0, 0.0]])
    tets = np.vstack([one.tets, one.tets + one.n_nodes])
    mesh = TetMesh(nodes=nodes, tets=tets, anchors=one.anchors)
    root = tmp_path_factory.mktemp("disjoint")
    paths = [str(root / f"two.{k}") for k in ("node", "ele", "anchor")]
    with open(paths[0], "w") as n, open(paths[1], "w") as e, open(paths[2], "w") as a:
        write_mesh_files(mesh, n, e, a)
    return ["--nodes", paths[0], "--elements", paths[1], "--anchors", paths[2]]


class TestGenData:
    def run_gen(self, mesh_files, tmp_path, name, seed="0", extra=()):
        out = tmp_path / name
        code = main(["gen-data"] + mesh_flags(mesh_files) + list(extra) + [
            "--out", str(out), "--seed", seed, "--n-alpha", "2", "--n-beta", "2",
            "--ramp-start", "0.3", "--ramp-factor", "2.5", "--ramp-poses", "3",
            "--ramp-cap", "1.2", "--youngs", "10000", "--poisson", "0.4",
            "--quiet"])
        assert code == 0
        return out

    def test_dataset_round_trip_and_report(self, mesh_files, tmp_path):
        out = self.run_gen(mesh_files, tmp_path, "d.dwtp")
        records = read_dataset_file(out)
        assert len(records) > 0
        report = (tmp_path / "d.dwtp.report.txt").read_text()
        assert "poses_emitted" in report and "records" in report
        self.run_gen(mesh_files, tmp_path, "e.dwtp",
                     extra=["--report", str(tmp_path / "r.txt")])
        assert "poses_emitted" in (tmp_path / "r.txt").read_text()
        assert not (tmp_path / "e.dwtp.report.txt").exists()

    def test_deterministic_bytes(self, mesh_files, tmp_path):
        a = self.run_gen(mesh_files, tmp_path, "a.dwtp")
        b = self.run_gen(mesh_files, tmp_path, "b.dwtp")
        assert a.read_bytes() == b.read_bytes()

    def test_no_partial_left_behind(self, mesh_files, tmp_path):
        out = self.run_gen(mesh_files, tmp_path, "c.dwtp")
        assert not os.path.exists(str(out) + ".partial")

    @pytest.mark.parametrize("error, code", [(ValueError("bad path"), 1),
                                             (ConvergenceError("path diverged", 3.0), 2)])
    def test_worker_error_exit_code(self, mesh_files, tmp_path, monkeypatch, capsys,
                                    error, code):
        # two CPUs, so the failing registration runs in a worker process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def failing(*args):
            raise error
        monkeypatch.setattr(dataset, "register_sequence", failing)
        assert main(["gen-data"] + mesh_flags(mesh_files) + [
            "--out", str(tmp_path / "f.dwtp"), "--n-alpha", "1", "--n-beta", "1",
            "--quiet"]) == code
        assert str(error) in capsys.readouterr().err


@pytest.fixture(scope="module")
def dataset_file(mesh_files, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-train")
    out = tmp / "train.dwtp"
    code = main(["gen-data"] + mesh_flags(mesh_files) + [
        "--out", str(out), "--n-alpha", "2", "--n-beta", "2",
        "--ramp-start", "0.3", "--ramp-factor", "2.0", "--ramp-poses", "4",
        "--ramp-cap", "1.2", "--youngs", "10000", "--poisson", "0.4",
        "--quiet"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def net_file(dataset_file, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-net")
    out = tmp / "net.dwnn"
    code = main(["train", "--dataset", str(dataset_file), "--out", str(out),
                 "--epochs", "3", "--batch", "256", "--val-fraction", "0.05",
                 "--test-fraction", "0.125", "--quiet"])
    assert code == 0
    return out


class TestTrainSimulateCompare:
    def test_loss_csv_rows(self, net_file):
        lines = [l for l in open(str(net_file) + ".loss.csv")
                 if not l.startswith("#")]
        assert lines[0].strip() == "epoch,train_mse,val_mse"
        assert len(lines) == 1 + 3 + 1      # header + epoch0 + 3 epochs

    def test_training_progress(self, net_file):
        rows = [l.split(",") for l in open(str(net_file) + ".loss.csv")
                if not l.startswith("#") and not l.startswith("epoch")]
        first, last = float(rows[0][2]), float(rows[-1][2])
        assert last < first

    def test_simulate_linear_ignores_net(self, mesh_files, tmp_path, net_file,
                                         capsys):
        out = tmp_path / "lin.csv"
        code = main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", "linear", "--net", str(net_file), "--steps", "5",
            "--dt", "0.02", "--track", "1,5", "--out", str(out),
            "--field-direction", "0,-1,0", "--field-magnitude", "0.3"])
        assert code == 0
        assert "ignored" in capsys.readouterr().out

    def test_simulate_row_accounting(self, mesh_files, tmp_path, net_file):
        out = tmp_path / "dw.csv"
        code = main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", "deepwarp", "--net", str(net_file), "--steps", "7",
            "--dt", "0.02", "--track", "0,3,9", "--out", str(out),
            "--field-direction", "0,-1,0", "--field-magnitude", "0.3", "--quiet"])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,node,ux,uy,uz"
        assert len(lines) == 1 + 7 * 3

    def test_simulate_tracks_the_first_unanchored_node_by_default(self, mesh_files,
                                                                  tmp_path):
        out = tmp_path / "default.csv"
        code = main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", "linear", "--steps", "3", "--dt", "0.02", "--out", str(out),
            "--field-direction", "0,-1,0", "--field-magnitude", "0.3", "--quiet"])
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        # nodes 0 to 8 are the anchored x = 0 face
        assert [r[1] for r in rows] == ["9"] * 3
        assert all(float(r[3]) < 0.0 for r in rows)     # uy follows the -y load

    @pytest.mark.parametrize("method", ["linear", "mw", "rsw", "deepwarp", "groundtruth"])
    def test_simulate_rows_match_compare_methods(self, mesh_files, tmp_path, net_file,
                                                 method):
        out = tmp_path / f"{method}.csv"
        net_flags = ["--net", str(net_file)] if method == "deepwarp" else []
        code = main(["simulate"] + mesh_flags(mesh_files) + net_flags + [
            "--method", method, "--steps", "6", "--dt", "0.02", "--track", "1,5",
            "--out", str(out), "--field-direction", "0,-1,0",
            "--field-magnitude", "0.3", "--youngs", "10000", "--poisson", "0.4",
            "--quiet"])
        assert code == 0
        mesh = load_mesh_files(mesh_files["node"], mesh_files["ele"],
                               mesh_files["anchor"])
        report = compare_methods(
            mesh, MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.4),
            ForceField.directional([0, -1, 0], 0.3), load_network_file(net_file),
            6, 0.02, methods=() if method == "groundtruth" else (method,))
        traj = report.trajectories[method].reshape(6, -1, 3)
        want = [",".join(f"{x:.10g}" for x in (0.02 * (k + 1), node, *traj[k, node]))
                for k in range(6) for node in (1, 5)]
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows == ["t,node,ux,uy,uz"] + want

    def test_simulate_rank_deficient_neighborhood_is_validation_error(self, tmp_path, capsys):
        # one sliver tet: node 0's three neighbours lie almost in one plane
        sliver = TetMesh(nodes=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 1e-5]]),
                         tets=np.array([[0, 1, 2, 3]]), anchors=frozenset({0}))
        paths = [tmp_path / f"sliver.{ext}" for ext in ("node", "ele", "anchor")]
        with open(paths[0], "w") as n, open(paths[1], "w") as e, open(paths[2], "w") as a:
            write_mesh_files(sliver, n, e, a)
        out = tmp_path / "mw.csv"
        code = main(["simulate", "--nodes", str(paths[0]), "--elements", str(paths[1]),
                     "--anchors", str(paths[2]), "--method", "mw", "--steps", "2",
                     "--dt", "0.02", "--out", str(out), "--field-direction", "0,-1,0",
                     "--quiet"])
        assert code == 1
        assert "error: node 0: neighborhood is rank-deficient" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_diverging_ground_truth_is_numerical(self, mesh_files, tmp_path,
                                                          capsys):
        out = tmp_path / "gt.csv"
        code = main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", "groundtruth", "--steps", "6", "--dt", "0.2", "--out", str(out),
            "--field-direction", "0,-1,0", "--field-magnitude", "1e3", "--quiet"])
        assert code == 2
        assert "ground truth diverged after" in capsys.readouterr().err
        assert not out.exists() and not os.path.exists(str(out) + ".partial")

    @pytest.mark.parametrize("command", ["features", "simulate"])
    def test_unreachable_node_is_validation_error(self, disjoint_mesh_flags, tmp_path,
                                                  net_file, command, capsys):
        out = tmp_path / "x.csv"
        flags = {"features": [],
                 "simulate": ["--method", "deepwarp", "--net", str(net_file), "--steps", "2"]}
        code = main([command] + disjoint_mesh_flags + flags[command] +
                    ["--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unreachable from every anchor" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("compare", ["--dt", "0"], "dt must be finite and positive"),
        ("simulate", ["--method", "groundtruth", "--dt", "0"],
         "dt must be finite and positive"),
        ("simulate", ["--method", "linear", "--dt", "-0.02"],
         "dt must be finite and positive"),
        ("simulate", ["--method", "linear", "--dt", "nan"],
         "dt must be finite and positive"),
        ("simulate", ["--method", "linear", "--dt", "inf"],
         "dt must be finite and positive"),
        ("simulate", ["--method", "groundtruth", "--dt", "1e-300"],
         "with 1/(beta dt^2) finite"),
        ("simulate", ["--method", "linear", "--steps", "-3"], "steps must be at least 1"),
        ("compare", ["--steps", "0"], "steps must be at least 1"),
    ])
    def test_time_stepping_validated(self, mesh_files, tmp_path, command, flags, message,
                                     capsys):
        out = tmp_path / "s.csv"
        methods = ["--methods", "linear"] if command == "compare" else []
        code = main([command] + mesh_flags(mesh_files) + methods + flags +
                    ["--out", str(out), "--quiet"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("steps", ["1e300", "1e15"])
    def test_steps_beyond_memory_rejected(self, mesh_files, tmp_path, command, steps,
                                          capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("stepping started")

        monkeypatch.setattr(cli, "simulate_methods", no_solve)
        monkeypatch.setattr(cli, "compare_methods", no_solve)
        out = tmp_path / "s.csv"
        method = "--methods" if command == "compare" else "--method"
        tracemalloc.start()
        try:
            code = main([command] + mesh_flags(mesh_files) + [
                method, "linear", "--steps", steps, "--out", str(out), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "bytes of physical memory" in capsys.readouterr().err
        assert peak < 2**20
        assert not out.exists()

    def test_memory_bound_counts_every_kept_trajectory(self, mesh_files, net_file, tmp_path,
                                                       capsys, monkeypatch):
        # physical memory for 5 trajectories of 100 steps of the 36-node beam:
        # one trajectory fits, compare's 5 kept ones and their array copies do not
        memory = 5 * 100 * 3 * 36 * 8
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.get(name) or sysconf(name))

        def no_solve(*args, **kwargs):
            raise AssertionError("stepping started")

        monkeypatch.setattr(cli, "compare_methods", no_solve)
        out = tmp_path / "c.csv"
        code = main(["compare"] + mesh_flags(mesh_files) + [
            "--methods", "linear,mw,rsw,deepwarp", "--net", str(net_file), "--steps", "100",
            "--out", str(out), "--quiet"])
        assert code == 1
        assert (f"5 x 2 copies of 100 steps of 108 doubles exceed the {memory} bytes of "
                "physical memory") in capsys.readouterr().err
        assert not out.exists()
        # simulate keeps one trajectory, so the same memory runs it
        assert main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", "linear", "--steps", "100", "--out", str(out), "--quiet"]) == 0

    @pytest.mark.parametrize("flags", [
        ["--field-magnitude", "nan"], ["--field-magnitude", "inf"],
        ["--field-direction", "nan,0,0"],
        ["--field", "circular", "--field-axis-point", "nan,0,0"],
        ["--youngs", "nan"], ["--youngs", "inf"],
        ["--density", "nan"], ["--density", "inf"],
        ["--damping-alpha", "nan"], ["--damping-beta", "inf"],
    ], ids="_".join)
    def test_non_finite_physical_input_rejected(self, mesh_files, tmp_path, flags, capsys):
        out = tmp_path / "s.csv"
        code = main(["simulate", "--method", "linear", "--steps", "2"] + mesh_flags(mesh_files)
                    + flags + ["--out", str(out), "--quiet"])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    # numpy warns of the overflow and the NaNs that follow it, and deepwarp of
    # its features outside the trained range: only these tests expect that
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::deepwarp.warper.ExtrapolationWarning")
    @pytest.mark.parametrize("method, magnitude, message", [
        ("rsw", "1e300", "rsw displacement is not finite at step 1"),
        ("mw", "1e300", "mw displacement is not finite at step 1"),
        ("deepwarp", "1e300", "deepwarp displacement is not finite at step 1"),
        ("groundtruth", "1e300", "Newton tolerance is not finite"),
        ("groundtruth", "1e160", "Newton tolerance is not finite"),
    ])
    def test_overflowing_load_is_numerical(self, mesh_files, tmp_path, net_file, method,
                                           magnitude, message, capsys):
        out = tmp_path / "s.csv"
        code = main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", method, "--net", str(net_file), "--field-magnitude", magnitude,
            "--steps", "3", "--track", "35", "--out", str(out), "--quiet"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_method_needs_net(self, mesh_files, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", "deepwarp", "--steps", "2", "--out", str(out), "--quiet"])
        assert code == 1

    def test_simulate_bad_net_preflight(self, mesh_files, tmp_path):
        bad = tmp_path / "bad.dwnn"
        bad.write_bytes(b"JUNKJUNKJUNK")
        out = tmp_path / "x.csv"
        code = main(["simulate"] + mesh_flags(mesh_files) + [
            "--method", "deepwarp", "--net", str(bad), "--steps", "2",
            "--out", str(out), "--quiet"])
        assert code == 1
        assert not out.exists()

    def test_compare_summary(self, mesh_files, tmp_path, net_file, capsys):
        out = tmp_path / "cmp.csv"
        code = main(["compare"] + mesh_flags(mesh_files) + [
            "--methods", "linear,mw,deepwarp", "--net", str(net_file),
            "--steps", "6", "--dt", "0.02", "--out", str(out),
            "--field-direction", "0,-1,0", "--field-magnitude", "0.3",
            "--youngs", "10000", "--poisson", "0.4"])
        assert code == 0
        printed = capsys.readouterr().out
        for name in ("linear", "mw", "deepwarp", "groundtruth"):
            assert name in printed
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 6 * 3

    @pytest.mark.parametrize("track, message", [
        ("9999", "tracked node 9999 out of range"),
        ("-1", "tracked node -1 out of range"),
        ("5,9999", "tracked node 9999 out of range"),
        ("1,5", "compare tracks one node"),
    ])
    def test_compare_track_validated_before_solving(self, mesh_files, tmp_path, track,
                                                    message, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("compare_methods ran")

        monkeypatch.setattr(cli, "compare_methods", no_solve)
        out = tmp_path / "t.csv"
        code = main(["compare"] + mesh_flags(mesh_files) + [
            "--methods", "linear", "--steps", "2", f"--track={track}",
            "--out", str(out), "--quiet"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_anchorless_mesh_is_validation_error(self, mesh_files, tmp_path,
                                                 capsys):
        unanchored = ["--nodes", mesh_files["node"], "--elements", mesh_files["ele"]]
        for command, method in (("simulate", "--method"), ("compare", "--methods")):
            code = main([command] + unanchored + [
                method, "linear", "--steps", "2", "--out", str(tmp_path / "z.csv"),
                "--quiet"])
            assert code == 1, command
            assert "requires anchors" in capsys.readouterr().err

    def test_unknown_method_rejected(self, mesh_files, tmp_path):
        code = main(["compare"] + mesh_flags(mesh_files) + [
            "--methods", "linear,magic", "--out", str(tmp_path / "y.csv"),
            "--quiet"])
        assert code == 1


class TestPartitionGraph:
    def test_edge_list(self, mesh_files, capsys):
        code = main(["partition-graph"] + mesh_flags(mesh_files) +
                    ["--partition", mesh_files["part"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "domains 2" in out
        assert "edge 0 1" in out

    def test_non_utf8_partition_file_is_validation_error(self, mesh_files, tmp_path, capsys):
        part = tmp_path / "latin1.part"
        with open(mesh_files["part"], "rb") as f:
            part.write_bytes(f.read() + b"# ma\xdfe\n")
        code = main(["partition-graph"] + mesh_flags(mesh_files) + ["--partition", str(part)])
        assert code == 1
        lines = len(open(mesh_files["part"]).readlines())
        assert f"error: {part} line {lines + 1}: not UTF-8 text" in capsys.readouterr().err

    def test_isomorphism_verdict(self, mesh_files, tmp_path, capsys):
        mesh2, part2 = t_shape()
        with open(tmp_path / "t.node", "w") as n, open(tmp_path / "t.ele", "w") as e:
            write_mesh_files(mesh2, n, e)
        with open(tmp_path / "t.part", "w") as f:
            for label in part2.labels:
                f.write(f"{label}\n")
        code = main(["partition-graph"] + mesh_flags(mesh_files) + [
            "--partition", mesh_files["part"],
            "--nodes2", str(tmp_path / "t.node"),
            "--elements2", str(tmp_path / "t.ele"),
            "--partition2", str(tmp_path / "t.part")])
        assert code == 0
        assert "isomorphic false" in capsys.readouterr().out


# extreme values of the physical and time-stepping flags; a --steps count
# whose trajectories would not fit in memory exits 1 before any stepping
EXTREMES = ["0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "inf", "-inf", "nan"]
PHYSICAL_FLAGS = ["youngs", "poisson", "density", "dt", "field-magnitude", "damping-alpha",
                  "damping-beta"]
STEPS = ["-1e300", "-1", "0", "2.5", "1e-300", "1e15", "1e300", "inf", "-inf", "nan"]
TRACKS = ["0", "9", "35", "36", "-1", "1e300", "1e-300", "inf", "-inf", "nan", "0,35"]
COMPARED = [m for m in METHODS if m != "groundtruth"]
# steps whose one trajectory of the 36-node beam fills two thirds of physical
# memory: every command keeps it and a copy of it, which does not fit
COPIED_STEPS = str(2 * os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                   // (3 * 3 * 36 * 8))


@pytest.fixture(scope="module")
def property_out(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "s.csv"


class TestSimulateProperty:
    # numpy warns of overflows and the NaNs after them, and deepwarp of its
    # features outside the trained range: only this test expects that
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::deepwarp.warper.ExtrapolationWarning")
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(method=st.sampled_from(METHODS),
           compared=st.lists(st.sampled_from(COMPARED), min_size=1, unique=True),
           flags=st.dictionaries(st.sampled_from(PHYSICAL_FLAGS), st.sampled_from(EXTREMES),
                                 max_size=2),
           steps=st.sampled_from(["1", "3"]) | st.sampled_from(STEPS),
           track=st.none() | st.sampled_from(TRACKS))
    @example(method="groundtruth", compared=COMPARED, flags={"dt": "1e-300"}, steps="3",
             track="35")
    @example(method="rsw", compared=["rsw"], flags={"field-magnitude": "1e300"}, steps="3",
             track="35")
    @example(method="mw", compared=["mw"], flags={"field-magnitude": "1e300"}, steps="3",
             track="35")
    @example(method="deepwarp", compared=["deepwarp"], flags={"field-magnitude": "1e300"},
             steps="3", track="35")
    @example(method="groundtruth", compared=COMPARED, flags={"field-magnitude": "1e300"},
             steps="3", track="35")
    @example(method="linear", compared=COMPARED, flags={}, steps=COPIED_STEPS, track="35")
    def test_exit_code_and_output_contract(self, mesh_files, net_file, property_out,
                                           command, method, compared, flags, steps, track):
        """Every run exits 0, 1, 2 or 3 without a traceback, and an exit 0
        writes finite rows. ``simulate`` runs ``method``, ``compare`` the
        ``compared`` methods."""
        property_out.unlink(missing_ok=True)
        argv = [command] + mesh_flags(mesh_files) + (
            ["--method", method] if command == "simulate" else
            ["--methods", ",".join(compared)]) + [
            "--net", str(net_file), "--steps", steps, "--out", str(property_out), "--quiet"]
        argv += [f"--{k}={v}" for k, v in flags.items()]
        argv += [] if track is None else [f"--track={track}"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            rows = [l.split(",") for l in property_out.read_text().splitlines()
                    if not l.startswith("#")][1:]
            if command == "compare":      # method,step,rel_l2_error
                rows = [row[1:] for row in rows]
            assert rows and np.isfinite(np.array(rows, dtype=float)).all()
