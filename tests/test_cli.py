import argparse
import os

import numpy as np
import pytest

from deepwarp import cli
from deepwarp.cli import main, parse_config_file
from deepwarp.dataset import read_dataset_file
from deepwarp.features import ForceField
from deepwarp.material import MaterialModel, MaterialParams
from deepwarp.mesh import load_mesh_files, write_mesh_files
from deepwarp.meshgen import beam, partition_by_axis, t_shape
from deepwarp.net import load_network_file
from deepwarp.warper import compare_methods


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

    def test_unwritable_out_is_io_error(self, mesh_files):
        code = main(["features"] + mesh_flags(mesh_files) +
                    ["--field-direction", "0,-1,0",
                     "--out", "/nonexistent-dir/features.csv", "--quiet"])
        assert code == 3


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
