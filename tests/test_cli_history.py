"""Tests of the CLI and the history I/O."""
import pathlib

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.history import HistoryWriter, read_history
from repro.workloads.mountain_wave import make_mountain_wave_case


# ------------------------------------------------------------------ history
class TestHistory:
    def test_roundtrip(self, tmp_path):
        case = make_mountain_wave_case(nx=12, ny=8, nz=8, dx=2000.0,
                                       ztop=8000.0, dt=4.0)
        path = tmp_path / "out" / "h.npz"
        hist = HistoryWriter(case.grid, path, every_seconds=8.0)
        hist.save(case.state)
        for _ in range(4):
            case.run(1)
            hist.maybe_save(case.state)
        p = hist.close()
        assert p.exists()

        meta, snaps = read_history(p)
        assert meta["nx"] == 12 and meta["nz"] == 8
        assert meta["zs"].shape == (12, 8)
        # every 8 s at dt=4 -> t = 0, 8, 16 (two saves skipped)
        assert [s.time for s in snaps] == [0.0, 8.0, 16.0]
        snap = snaps[-1]
        assert snap.fields["rho"].shape == (12, 8, 8)
        assert snap.fields["rhou"].shape == (13, 8, 8)  # staggered kept
        # stored interiors match the live state at that time
        g = case.grid
        h = g.halo

    def test_field_selection(self, tmp_path):
        case = make_mountain_wave_case(nx=12, ny=8, nz=8, dx=2000.0,
                                       ztop=8000.0)
        hist = HistoryWriter(case.grid, tmp_path / "h.npz",
                             fields=["rho", "rhotheta"])
        hist.save(case.state)
        p = hist.close()
        _, snaps = read_history(p)
        assert set(snaps[0].fields) == {"rho", "rhotheta"}

    def test_closed_writer_rejects(self, tmp_path):
        case = make_mountain_wave_case(nx=12, ny=8, nz=8, dx=2000.0,
                                       ztop=8000.0)
        hist = HistoryWriter(case.grid, tmp_path / "h.npz")
        hist.save(case.state)
        hist.close()
        with pytest.raises(RuntimeError):
            hist.save(case.state)

    def test_version_check(self, tmp_path):
        p = tmp_path / "bad.npz"
        np.savez(p, format_version=np.array(999), n_snapshots=np.array(0),
                 times=np.array([]), grid_nx=np.array(1), grid_ny=np.array(1),
                 grid_nz=np.array(1), grid_dx=np.array(1.0),
                 grid_dy=np.array(1.0), grid_ztop=np.array(1.0),
                 grid_z_f=np.zeros(2), grid_zs=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            read_history(p)

    def test_precip_roundtrip(self, tmp_path):
        case = make_mountain_wave_case(nx=12, ny=8, nz=8, dx=2000.0,
                                       ztop=8000.0)
        case.state.precip_accum = np.full((12, 8), 2.5)
        hist = HistoryWriter(case.grid, tmp_path / "h.npz")
        hist.save(case.state)
        _, snaps = read_history(hist.close())
        np.testing.assert_array_equal(snaps[0].precip_accum, 2.5)


# ---------------------------------------------------------------------- CLI
class TestCli:
    def test_parser_commands(self):
        p = build_parser()
        args = p.parse_args(["run", "mountain-wave", "--steps", "3"])
        assert args.workload == "mountain-wave" and args.steps == 3
        args = p.parse_args(["bench", "fig11"])
        assert args.table == "fig11"
        with pytest.raises(SystemExit):
            p.parse_args(["bench", "nope"])

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla S1070" in out and "44.3" in out

    def test_bench_tables(self, capsys):
        for table in ("fig4", "roofline", "fig9", "fig11", "table1",
                      "projection"):
            assert main(["bench", table]) == 0
        out = capsys.readouterr().out
        assert "6956x6052x48" in out          # Table I last row
        assert "TSUBAME 2.0" in out

    def test_run_mountain_wave_with_history(self, tmp_path, capsys):
        hist = tmp_path / "run.npz"
        rc = main(["run", "mountain-wave", "--nx", "16", "--ny", "8",
                   "--nz", "8", "--steps", "4", "--dt", "4",
                   "--history", str(hist), "--history-every", "8"])
        assert rc == 0
        assert hist.exists()
        out = capsys.readouterr().out
        assert "max|w|" in out
        _, snaps = read_history(hist)
        assert len(snaps) >= 2

    def test_run_decomposed(self, capsys):
        rc = main(["run", "mountain-wave", "--nx", "16", "--ny", "9",
                   "--nz", "8", "--steps", "2", "--dt", "4",
                   "--ranks", "2x3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "halo traffic" in out


class TestCheckpoint:
    def test_restart_is_bit_identical(self, tmp_path):
        """Run 6 steps straight vs 3 steps + checkpoint + restart + 3
        steps: identical trajectories."""
        from repro.history import load_checkpoint, save_checkpoint

        a = make_mountain_wave_case(nx=14, ny=8, nz=8, dx=2000.0,
                                    ztop=8000.0, dt=4.0)
        b = make_mountain_wave_case(nx=14, ny=8, nz=8, dx=2000.0,
                                    ztop=8000.0, dt=4.0)
        a.run(6)

        b.run(3)
        ckpt = save_checkpoint(b.state, tmp_path / "c.npz")
        restored = load_checkpoint(ckpt, b.grid)
        assert restored.time == b.state.time
        restored = b.model.run(restored, 3)

        for name in a.state.prognostic_names():
            np.testing.assert_array_equal(
                a.state.get(name), restored.get(name), err_msg=name
            )

    def test_checkpoint_shape_validation(self, tmp_path):
        from repro.core.grid import make_grid
        from repro.history import load_checkpoint, save_checkpoint

        case = make_mountain_wave_case(nx=14, ny=8, nz=8, dx=2000.0,
                                       ztop=8000.0)
        p = save_checkpoint(case.state, tmp_path / "c.npz")
        wrong = make_grid(10, 8, 8, 2000.0, 2000.0, 8000.0)
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(p, wrong)

    def test_checkpoint_keeps_precip(self, tmp_path):
        from repro.history import load_checkpoint, save_checkpoint

        case = make_mountain_wave_case(nx=14, ny=8, nz=8, dx=2000.0,
                                       ztop=8000.0)
        case.state.precip_accum = np.full((14, 8), 1.25)
        p = save_checkpoint(case.state, tmp_path / "c.npz")
        st = load_checkpoint(p, case.grid)
        np.testing.assert_array_equal(st.precip_accum, 1.25)

    def test_failed_write_leaves_the_previous_checkpoint(self, tmp_path,
                                                         monkeypatch):
        """The writer dies after some bytes are out: no ``*.tmp`` is left
        and the file that was there still restores."""
        from repro.history import load_checkpoint, save_checkpoint

        case = make_mountain_wave_case(nx=14, ny=8, nz=8, dx=2000.0,
                                       ztop=8000.0)
        p = save_checkpoint(case.state, tmp_path / "c.npz")
        before = p.read_bytes()

        def dies_midway(f, **arrays):
            f.write(before[:1000])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", dies_midway)
        case.state.rho += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(case.state, p)
        assert [q.name for q in tmp_path.iterdir()] == ["c.npz"]
        assert p.read_bytes() == before
        load_checkpoint(p, case.grid)


class TestReproduce:
    def test_generates_document(self, tmp_path):
        from repro.reproduce import MISSING, generate_experiments_markdown

        # with an empty report dir every marked block is flagged as missing
        markers = pathlib.Path("EXPERIMENTS.md").read_text().count(
            "<!-- report: test_")
        assert markers >= 28
        text = generate_experiments_markdown(tmp_path)
        assert text.count(MISSING) == markers
        assert "Headline summary" in text
        # hand-written records are the document's, not the generator's
        assert "## Host performance — compiled kernels" in text
        assert "## Known deviations and their reasons" in text
        # with one report present, it is embedded verbatim
        (tmp_path / "test_fig11_step_breakdown.txt").write_text("BODY-123")
        text = generate_experiments_markdown(tmp_path)
        assert "BODY-123" in text
        assert text.count(MISSING) == markers - 1

    def test_cli_reproduce(self, tmp_path, capsys):
        out = tmp_path / "EXP.md"
        rc = main(["reproduce", "-o", str(out), "--reports",
                   "benchmarks/reports"])
        assert rc == 0
        assert out.exists()
        assert "paper vs. reproduced" in out.read_text()


class TestCliErrors:
    def test_run_invalid_ranks_format(self):
        with pytest.raises(ValueError):
            main(["run", "mountain-wave", "--nx", "16", "--ny", "9",
                  "--nz", "8", "--steps", "1", "--ranks", "banana"])

    def test_run_warm_bubble_smoke(self, capsys):
        rc = main(["run", "warm-bubble", "--nx", "10", "--ny", "10",
                   "--nz", "10", "--steps", "2", "--dt", "4"])
        assert rc == 0
        assert "max|w|" in capsys.readouterr().out

    def test_run_ice_flag(self, capsys):
        rc = main(["run", "warm-bubble", "--nx", "10", "--ny", "10",
                   "--nz", "10", "--steps", "1", "--dt", "4", "--ice"])
        assert rc == 0

    def test_bench_fig10_prints_efficiency(self, capsys):
        assert main(["bench", "fig10"]) == 0
        assert "efficiency" in capsys.readouterr().out
