"""The RunSpec/Experiment facade, crash recovery, and the CLI surface."""
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Experiment, RunSpec, make_case, parse_ranks
from repro.core.state import zero_bits
from repro.resilience.checkpoint import CheckpointError
from repro.resilience.faults import FaultPlan

_SMALL = dict(nx=12, ny=12, nz=10)


# ----------------------------------------------------------------- RunSpec
class TestRunSpec:
    def test_normalization_auto_backend(self):
        assert RunSpec(**_SMALL).normalized().backend == "cpu"
        assert RunSpec(summary=True, **_SMALL).normalized().backend == "gpu"
        s = RunSpec(ranks="2x2", **_SMALL).normalized()
        assert s.backend == "multigpu" and s.ranks == (2, 2)

    def test_normalization_validates(self):
        with pytest.raises(ValueError, match="multigpu"):
            RunSpec(backend="multigpu").normalized()
        with pytest.raises(ValueError, match="backend"):
            RunSpec(backend="tpu").normalized()
        with pytest.raises(ValueError, match="checkpoint_dir"):
            RunSpec(checkpoint_every=5).normalized()
        with pytest.raises(ValueError, match="steps"):
            RunSpec(steps=-1).normalized()

    def test_faults_parsed_to_plan(self):
        s = RunSpec(faults="drop@1", **_SMALL).normalized()
        assert isinstance(s.faults, FaultPlan)
        assert len(s.faults) == 1

    def test_parse_ranks(self):
        assert parse_ranks(None) is None
        assert parse_ranks("2x3") == (2, 3)
        assert parse_ranks((4, 1)) == (4, 1)

    def test_make_case_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_case("tornado")


# -------------------------------------------------------------- Experiment
class TestExperiment:
    def test_cpu_backend_matches_direct_model(self):
        result = Experiment(RunSpec(steps=3, **_SMALL)).run()
        case = make_case("warm-bubble", **_SMALL)
        ref = case.model.run(case.state, 3)
        for name in ref.prognostic_names():
            np.testing.assert_array_equal(result.state.get(name),
                                          ref.get(name), err_msg=name)
        assert result.steps_done == 3
        assert result.recoveries == 0

    def test_multigpu_backend_matches_cpu(self):
        cpu = Experiment(RunSpec(steps=2, **_SMALL)).run()
        mg = Experiment(RunSpec(steps=2, ranks=(2, 2), **_SMALL)).run()
        g = mg.state.grid
        np.testing.assert_allclose(g.interior(mg.state.rho),
                                   g.interior(cpu.state.rho),
                                   rtol=0, atol=1e-12)
        assert mg.halo_messages > 0

    def test_advance_and_gather_segmented(self):
        exp = Experiment(RunSpec(steps=0, **_SMALL)).prepare()
        exp.advance(2)
        mid = exp.gather().copy()
        exp.advance(1)
        assert exp.steps_done == 3
        assert exp.gather().time > mid.time

    def test_crash_recovery_bit_identity_2x2(self, tmp_path):
        """The acceptance scenario: 2x2 run, rank crash at step 3,
        checkpoints every 2 — resumes and matches the uninterrupted run
        bit for bit, with the recovery visible in the metrics."""
        base = dict(steps=5, ranks=(2, 2), checkpoint_every=2, **_SMALL)
        ref = Experiment(RunSpec(
            checkpoint_dir=str(tmp_path / "ref"), **base)).run()
        faulty = Experiment(RunSpec(
            faults="crash@3:r1", metrics=True,
            checkpoint_dir=str(tmp_path / "faulty"), **base)).run()

        for name in ref.state.prognostic_names():
            np.testing.assert_array_equal(faulty.state.get(name),
                                          ref.state.get(name), err_msg=name)
        assert faulty.recoveries == 1
        assert faulty.fault_log[0][1].value == "crash"
        counters = faulty.metrics["counters"]
        assert counters["resilience.recoveries"] == 1
        assert counters["resilience.faults.crash"] == 1
        assert counters["checkpoint.restores"] == 1
        assert faulty.checkpoints_written >= 2

    def test_crash_without_checkpoint_restarts_from_initial(self):
        ref = Experiment(RunSpec(steps=4, **_SMALL)).run()
        faulty = Experiment(RunSpec(steps=4, faults="crash@2",
                                    **_SMALL)).run()
        for name in ref.state.prognostic_names():
            np.testing.assert_array_equal(faulty.state.get(name),
                                          ref.state.get(name), err_msg=name)
        assert faulty.recoveries == 1

    def test_resume_continues_bit_identically(self, tmp_path):
        base = dict(ranks=(2, 2), checkpoint_every=2,
                    checkpoint_dir=str(tmp_path), **_SMALL)
        ref = Experiment(RunSpec(steps=4, **dict(
            base, checkpoint_dir=str(tmp_path / "ref")))).run()
        Experiment(RunSpec(steps=2, **base)).run()      # interrupted here
        resumed = Experiment(RunSpec(steps=4, resume=True, **base)).run()
        assert resumed.resumed_from == 2
        assert resumed.steps_done == 4
        for name in ref.state.prognostic_names():
            np.testing.assert_array_equal(resumed.state.get(name),
                                          ref.state.get(name), err_msg=name)

    @pytest.mark.parametrize("damage, restored_from", [
        ("flip", 2), ("truncate", 2), ("marker", 3), ("all", 0)])
    def test_crash_with_damaged_newest_archive_still_recovers(
            self, tmp_path, damage, restored_from):
        """keep=2 holds steps 2 and 3 when the crash hits: a flipped byte
        or a truncation in step 3 falls back to step 2, a deleted marker
        costs nothing, and with both archives gone the run restarts cold
        — each time bit-identical to the uninterrupted run."""
        ref = Experiment(RunSpec(steps=5, **_SMALL)).run()
        exp = Experiment(RunSpec(
            steps=5, faults="crash@3", checkpoint_every=1,
            checkpoint_dir=str(tmp_path), **_SMALL)).prepare()
        exp.advance(3)
        newest, older = exp.checkpoints.path_for(3), exp.checkpoints.path_for(2)
        assert newest.exists() and older.exists()
        raw = bytearray(newest.read_bytes())
        if damage == "flip":
            raw[len(raw) // 2] ^= 0x01
            newest.write_bytes(bytes(raw))
        elif damage == "truncate":
            newest.write_bytes(bytes(raw[: len(raw) // 3]))
        elif damage == "marker":
            (tmp_path / "latest").unlink()
        else:
            newest.write_bytes(b"")
            older.write_bytes(bytes(raw[:100]))
        result = exp.run()
        assert result.recoveries == 1
        assert result.recovered_from == [restored_from]
        assert f"from step {restored_from}" in result.resilience_report()
        for name in ref.state.prognostic_names():
            assert (result.state.get(name).tobytes()
                    == ref.state.get(name).tobytes()), name

    def test_members_sharing_a_directory_restore_only_their_own(
            self, tmp_path):
        """Every member of an ensemble gets the base spec's
        ``checkpoint_dir``.  Members 1 and 2 crash before their first
        save; the newest archive in the directory is member 0's final one
        (same shapes, same rank count), which they used to restore — and
        returned member 0's fields.  They restart cold instead; a resume
        with more steps still reads the run's own archives."""
        from repro.ensemble import EnsembleSpec

        base = RunSpec("vortex", nx=16, ny=16, nz=8, steps=4)
        crashing = EnsembleSpec(base=replace(
            base, faults="crash@1", checkpoint_every=2,
            checkpoint_dir=str(tmp_path)), members=3, seed=5).expand()
        clean = EnsembleSpec(base=base, members=3, seed=5).expand()
        results = [Experiment(spec).run() for spec in crashing]
        for got, spec in zip(results, clean):
            want = Experiment(spec).run().state
            assert got.recovered_from == [0]
            for name in want.prognostic_names():
                np.testing.assert_array_equal(got.state.get(name),
                                              want.get(name), err_msg=name)
        # the directory now holds the last member's step-2 and step-4
        more = replace(crashing[2], steps=6, faults=None, resume=True)
        resumed = Experiment(more).run()
        assert resumed.resumed_from == 4
        with pytest.raises(CheckpointError, match="another run"):
            Experiment(replace(crashing[1], resume=True)).prepare()

    def test_species_elided_at_the_checkpoint_becomes_active_after(
            self, tmp_path):
        """A bubble just short of saturation: ``qc`` is all-zero (so not
        stored) in the step-4 archive the crash restores from, and
        condenses by step 6 — resumed == uninterrupted, bitwise."""
        base = dict(steps=6, workload_kwargs={"bubble_rh": 0.96}, **_SMALL)
        ref = Experiment(RunSpec(**base)).run()
        result = Experiment(RunSpec(
            faults="crash@4", checkpoint_every=1, checkpoint_keep=8,
            checkpoint_dir=str(tmp_path), **base)).run()
        assert result.recovered_from == [4]
        with np.load(tmp_path / "ckpt-00000004.npz") as z:
            manifest = json.loads(bytes(z["manifest"]).decode())
            assert "r0/qc" in [key for key, _, _ in manifest["zeros"]]
            assert "r0/qc" not in z.files
        assert not zero_bits(result.state.q["qc"])
        for name in ref.state.prognostic_names():
            assert (result.state.get(name).tobytes()
                    == ref.state.get(name).tobytes()), name

    def test_resume_skips_a_damaged_newest_archive(self, tmp_path):
        base = dict(checkpoint_every=1, checkpoint_dir=str(tmp_path),
                    **_SMALL)
        ref = Experiment(RunSpec(steps=4, **_SMALL)).run()
        Experiment(RunSpec(steps=2, **base)).run()
        newest = tmp_path / "ckpt-00000002.npz"
        newest.write_bytes(newest.read_bytes()[:-40])
        resumed = Experiment(RunSpec(steps=4, resume=True, **base)).run()
        assert resumed.resumed_from == 1
        for name in ref.state.prognostic_names():
            assert (resumed.state.get(name).tobytes()
                    == ref.state.get(name).tobytes()), name
        # nothing readable left: a typed failure, not a BadZipFile
        for path in tmp_path.glob("ckpt-*.npz"):
            path.write_bytes(b"PK")
        with pytest.raises(CheckpointError) as err:
            Experiment(RunSpec(steps=4, resume=True, **base)).prepare()
        assert err.value.path.parent == tmp_path

    def test_resume_without_checkpoint_raises(self, tmp_path):
        spec = RunSpec(steps=2, resume=True,
                       checkpoint_dir=str(tmp_path / "void"), **_SMALL)
        with pytest.raises(FileNotFoundError):
            Experiment(spec).prepare()

    def test_retry_stats_surface_in_result(self):
        result = Experiment(RunSpec(steps=2, ranks=(2, 2),
                                    faults="drop@0,corrupt@1",
                                    **_SMALL)).run()
        assert result.retry_stats.retransmits == 2
        assert result.retry_stats.recovery_s > 0
        assert "retransmits" in result.resilience_report()

    def test_gpu_backend_session_records_devices(self):
        result = Experiment(RunSpec(steps=1, backend="gpu", metrics=True,
                                    **_SMALL)).run()
        assert result.session is not None
        assert result.session.device_ops
        assert result.metrics["counters"]["kernel.launches"] > 0


# ------------------------------------------------------------- deprecation
class TestDeprecatedShimsRemoved:
    def test_cli_make_case_shim_is_gone(self):
        """The old CLI case-construction shim was removed; the single
        implementation is repro.api.make_case."""
        import repro.cli as cli

        assert not hasattr(cli, "_make_case")
        from repro.api import make_case

        case = make_case("warm-bubble", nx=12, ny=12, nz=10)
        assert case.grid.nx == 12

    def test_halo_exchanger_rejects_legacy_kwargs(self):
        from repro.core.grid import make_grid
        from repro.dist.decomposition import Topology, decompose
        from repro.dist.halo import HaloExchanger
        from repro.dist.mpi_sim import SimComm

        g = make_grid(nx=8, ny=8, nz=4, dx=500.0, dy=500.0, ztop=4000.0)
        subs = decompose(8, 8, 2, 2, min_cells=g.halo)
        with pytest.raises(TypeError):
            HaloExchanger(SimComm(4), subs, periodic_x=True,
                          periodic_y=False)
        ex = HaloExchanger(SimComm(4), subs, Topology.from_grid(g, 2, 2))
        assert ex.topology.periodic_x and ex.topology.periodic_y

    def test_topology_construction_does_not_warn(self):
        from repro.core.grid import make_grid
        from repro.dist.decomposition import Topology, decompose
        from repro.dist.halo import HaloExchanger
        from repro.dist.mpi_sim import SimComm

        g = make_grid(nx=8, ny=8, nz=4, dx=500.0, dy=500.0, ztop=4000.0)
        subs = decompose(8, 8, 2, 2, min_cells=g.halo)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            HaloExchanger(SimComm(4), subs, Topology.from_grid(g, 2, 2))


# -------------------------------------------------------------------- CLI
class TestCliSurface:
    def test_run_with_demo_faults_smoke(self, capsys, tmp_path,
                                        monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["run", "--faults", "demo", "--steps", "5",
                     "--nx", "12", "--ny", "12", "--nz", "10"]) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "crash recoveries" in out
        assert "max|w|" in out

    def test_run_checkpoint_resume_cycle(self, capsys, tmp_path,
                                         monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        common = ["run", "warm-bubble", "--nx", "12", "--ny", "12",
                  "--nz", "10", "--ranks", "2x2",
                  "--checkpoint-every", "2", "--checkpoint-dir", "ck"]
        assert main(common + ["--steps", "2"]) == 0
        line_a = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(common + ["--steps", "4", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at step 2" in out
        uninterrupted = [a if a != "ck" else "ck2" for a in common]
        assert main(uninterrupted + ["--steps", "4"]) == 0
        line_b = capsys.readouterr().out.strip().splitlines()[-1]
        assert out.strip().splitlines()[-1] == line_b != line_a
