"""Tests for the repro-partition and repro-experiments command-line tools."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.registry import partition_2d
from repro.core.serialize import load_partition
from repro.experiments import cli as experiments_cli
from repro.experiments import rawstore
from repro.experiments.rawstore import current_raw_store, use_raw_store


@pytest.fixture()
def matrix_file(tmp_path, rng):
    A = rng.integers(1, 100, (24, 24)).astype(np.int64)
    path = tmp_path / "load.npy"
    np.save(path, A)
    return path, A


class TestCli:
    def test_report(self, matrix_file, capsys):
        path, A = matrix_file
        rc = main([str(path), "-m", "6", "--report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "imbalance" in out and "JAG-M-HEUR" in out

    def test_report_imbalance_is_exact_and_zero_safe(self, tmp_path, capsys):
        # the report prints Partition.imbalance: one rounding of the exact
        # ratio, and 0 for an all-zero matrix (it used to divide by zero)
        path = tmp_path / "zeros.npy"
        np.save(path, np.zeros((6, 5), dtype=np.int64))
        assert main([str(path), "-m", "4", "--report"]) == 0
        assert "imbalance     : 0.0000%" in capsys.readouterr().out.splitlines()
        A = np.full((3, 3), 2**60 // 9, dtype=np.int64)
        A[0, 0] += 1
        np.save(path, A)
        assert main([str(path), "-m", "3", "--method", "JAG-M-HEUR-HOR", "--report"]) == 0
        part = partition_2d(A, 3, "JAG-M-HEUR-HOR")
        line = f"imbalance     : {part.imbalance(A):.4%}"
        assert line in capsys.readouterr().out.splitlines()

    def test_writes_partition_and_image(self, matrix_file, tmp_path, capsys):
        path, A = matrix_file
        out = tmp_path / "part.json"
        img = tmp_path / "part.ppm"
        rc = main([str(path), "-m", "4", "--out", str(out), "--image", str(img)])
        assert rc == 0
        part = load_partition(out)
        part.validate()
        assert part.m == 4
        assert img.read_bytes().startswith(b"P6")

    def test_ascii(self, matrix_file, capsys):
        path, _ = matrix_file
        main([str(path), "-m", "4", "--ascii"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 24

    def test_npz_with_key(self, tmp_path, rng, capsys):
        A = rng.integers(1, 9, (8, 8))
        path = tmp_path / "data.npz"
        np.savez(path, other=np.zeros(3), load=A)
        rc = main([str(path), "-m", "2", "--key", "load", "--report"])
        assert rc == 0

    def test_npz_bad_key(self, tmp_path, rng):
        path = tmp_path / "data.npz"
        np.savez(path, load=rng.integers(1, 9, (4, 4)))
        with pytest.raises(SystemExit):
            main([str(path), "-m", "2", "--key", "missing"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path / "nope.npy"), "-m", "2"])

    def test_bad_method(self, matrix_file):
        path, _ = matrix_file
        with pytest.raises(SystemExit):
            main([str(path), "-m", "2", "--method", "MAGIC"])

    def test_bad_matrix(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.array([1, 2, 3]))  # 1D
        with pytest.raises(SystemExit):
            main([str(path), "-m", "2"])

    def test_bad_m(self, matrix_file):
        path, _ = matrix_file
        with pytest.raises(SystemExit):
            main([str(path), "-m", "0"])

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "load.txt"
        path.write_text("1 2 3")
        with pytest.raises(SystemExit):
            main([str(path), "-m", "2"])

    MALFORMED = {
        "empty.npz": (lambda p: np.savez(p), "holds no arrays"),
        "object.npy": (lambda p: np.save(p, np.array([{}, None], dtype=object)), "cannot read"),
        "garbage.npy": (lambda p: p.write_bytes(b"not numpy data " * 4), "cannot read"),
        "garbage.npz": (lambda p: p.write_bytes(b"PK\x03\x04 truncated"), "cannot read"),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_is_a_named_error(self, tmp_path, name):
        write, expect = self.MALFORMED[name]
        path = tmp_path / name
        write(path)
        with pytest.raises(SystemExit) as exc:
            main([str(path), "-m", "2"])
        assert str(exc.value.code).startswith("error: ") and expect in str(exc.value.code)


class TestExperimentsCli:
    def test_scale_choices_follow_the_profile_table(self, monkeypatch, tmp_path, capsys):
        """--scale accepts a profile from the table and rejects other names."""
        seen = []
        monkeypatch.setattr(
            experiments_cli,
            "ALL_RUNNABLE",
            {"fig05": lambda sc: seen.append(sc.name) or _demo_figure()},
        )
        rc = experiments_cli.main(["--figures", "fig05", "--scale", "paper"])
        assert rc == 0 and seen == ["paper"]
        for name in ("huge", "large"):
            with pytest.raises(SystemExit) as exc:
                experiments_cli.main(["--figures", "fig05", "--scale", name])
            assert exc.value.code == 2

    @staticmethod
    def _process_state():
        return (
            dict(os.environ),
            current_raw_store(),
            list(rawstore._STACK),
        )

    def test_main_leaves_process_state_unchanged(self, tmp_path, capsys):
        before = self._process_state()
        rc = experiments_cli.main(
            [
                "--figures",
                "fig05",
                "--scale",
                "tiny",
                "--raw-dir",
                os.fspath(tmp_path / "raw"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "raw").is_dir()  # the raw store was in use
        assert self._process_state() == before

    def test_force_leaves_the_ambient_store_unforced(self, tmp_path, capsys):
        raw = os.fspath(tmp_path / "raw")
        argv = ["--figures", "fig05", "--scale", "tiny", "--force"]
        with use_raw_store(raw) as ambient:
            assert experiments_cli.main(argv + ["--raw-dir", raw]) == 0
            assert current_raw_store() is ambient
            assert ambient.force is False
            assert ambient.misses == 0  # the forced run used its own store
            # the ambient store is no fallback for a missing --raw-dir
            with pytest.raises(SystemExit):
                experiments_cli.main(argv)


def _demo_figure():
    from repro.experiments.harness import FigureResult

    r = FigureResult("fig05", "demo", "m", "y")
    r.add("s", 1, 0.5)
    return r
