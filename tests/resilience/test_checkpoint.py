"""Checkpoint-restart: atomicity, pruning, the archive format (stored,
CRC-checked, zero-aware), damaged archives, and bit-identical resumes."""
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from repro.constants import WATER_SPECIES
from repro.core.grid import make_grid
from repro.core.state import zeros_state
from repro.obs.trace import TraceSession, use_session
from repro.resilience.checkpoint import (
    CheckpointError, CheckpointManager, read_states, write_states)
from repro.workloads.warm_bubble import make_warm_bubble_case


@pytest.fixture(scope="module")
def case():
    return make_warm_bubble_case(nx=12, ny=12, nz=10)


def _fresh_state(case):
    return case.model.initial_state()


# ------------------------------------------------------------- bookkeeping
class TestManager:
    def test_due_cadence(self, tmp_path):
        m = CheckpointManager(tmp_path, every=3)
        assert [s for s in range(1, 10) if m.due(s)] == [3, 6, 9]
        assert not CheckpointManager(tmp_path).due(3)   # every=0 disables
        assert not m.due(0)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=-1)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_save_load_roundtrip_single_rank(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        st = _fresh_state(case)
        m.save(5, st)
        assert m.latest_step() == 5
        ckpt = m.load([case.grid])
        assert ckpt.step == 5
        assert len(ckpt.states) == 1
        for name in st.prognostic_names():
            np.testing.assert_array_equal(ckpt.states[0].get(name),
                                          st.get(name), err_msg=name)
        assert ckpt.states[0].time == st.time
        assert ckpt.meta["phase"] == "long_step_boundary"

    def test_no_tmp_files_left_behind(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        m.save(1, _fresh_state(case))
        assert not list(tmp_path.glob("*.tmp"))
        assert (tmp_path / "latest").read_text().strip() == "1"

    def test_prune_keeps_newest(self, tmp_path, case):
        m = CheckpointManager(tmp_path, keep=2)
        st = _fresh_state(case)
        for step in (1, 2, 3, 4):
            m.save(step, st)
        archives = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert archives == ["ckpt-00000003.npz", "ckpt-00000004.npz"]
        assert m.latest_step() == 4

    def test_latest_falls_back_to_archive_scan(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        m.save(7, _fresh_state(case))
        (tmp_path / "latest").unlink()
        assert m.latest_step() == 7

    def test_rng_state_roundtrip(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        rng = np.random.default_rng(123)
        rng.random(10)
        m.save(1, _fresh_state(case), rng=rng)
        ckpt = m.load([case.grid])
        restored = np.random.default_rng(0)
        restored.bit_generator.state = ckpt.rng_state
        assert restored.random() == rng.random()

    def test_load_rejects_wrong_rank_count(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        m.save(1, _fresh_state(case))
        with pytest.raises(ValueError, match="ranks"):
            m.load([case.grid, case.grid])

    def test_load_missing_raises(self, tmp_path, case):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(tmp_path / "empty").load([case.grid])


# ------------------------------------------------- bit-identical continue
class TestResumeBitIdentity:
    def test_single_domain_resume_equals_uninterrupted(self, tmp_path, case):
        """AsucaModel: run 6 steps straight vs. run 6 with a checkpoint at
        3, reload, and continue — the final fields must be identical."""
        model = case.model
        ref = model.run(_fresh_state(case), 6)

        m = CheckpointManager(tmp_path, every=3)
        model.run(_fresh_state(case), 3, checkpoint=m)
        ckpt = m.load([case.grid])
        assert ckpt.step == 3
        resumed = model.run(ckpt.states[0], 3, checkpoint=m,
                            start_step=ckpt.step)
        for name in ref.prognostic_names():
            np.testing.assert_array_equal(resumed.get(name), ref.get(name),
                                          err_msg=name)
        assert resumed.time == ref.time

    def test_multigpu_resume_equals_uninterrupted(self, tmp_path):
        """2x2 MultiGpuAsuca: kill after step 2 of 4, restore from the
        step-2 checkpoint, finish — bit-identical to the straight run."""
        from repro.dist.multigpu import MultiGpuAsuca

        case = make_warm_bubble_case(nx=12, ny=12, nz=10)

        def fresh():
            machine = MultiGpuAsuca(case.grid, case.ref, 2, 2,
                                    case.model.config)
            driver = machine.driver()
            return driver, driver.scatter(case.model.initial_state())

        def run(driver, states, first, n, checkpoint=None):
            for i in range(first, first + n):
                states = driver.step(states, i)
                if checkpoint is not None and checkpoint.due(i + 1):
                    checkpoint.save(i + 1, states)
            return states

        driver, states = fresh()
        ref = driver.gather(run(driver, states, 0, 4))

        m = CheckpointManager(tmp_path, every=2)
        driver, states = fresh()
        run(driver, states, 0, 2, checkpoint=m)    # "killed" here
        ckpt = m.load([r.grid for r in driver.ranks])
        assert ckpt.step == 2

        driver2, _ = fresh()                       # a fresh process
        out = driver2.gather(run(driver2, ckpt.states, ckpt.step, 2,
                                 checkpoint=m))
        for name in ref.prognostic_names():
            np.testing.assert_array_equal(out.get(name), ref.get(name),
                                          err_msg=name)


# ------------------------------------------------------------ the archive
def _manifest(path):
    with np.load(path) as z:
        return json.loads(bytes(z["manifest"]).decode())


def _random_state(grid, dtype, rng, zeroed=()):
    """Every array random (halos too), except the ``zeroed`` species."""
    st = zeros_state(grid, dtype=dtype)
    for name in st.prognostic_names():
        if name not in zeroed:
            st.get(name)[...] = rng.standard_normal(
                st.get(name).shape).astype(dtype)
    return st


class TestFormat:
    def test_members_are_stored_and_zeros_are_not_written(self, tmp_path,
                                                           case):
        """Needs no clock: nothing is deflated, and the archive is no
        larger than the non-zero arrays plus zip/npy/manifest overhead."""
        st = _fresh_state(case)              # dry species are all +0.0
        path = CheckpointManager(tmp_path).save(1, st)
        with zipfile.ZipFile(path) as z:
            assert z.testzip() is None       # every member passes its CRC
            infos = z.infolist()
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)
        live = [st.get(n) for n in st.prognostic_names()
                if st.get(n).any() or np.signbit(st.get(n)).any()]
        assert path.stat().st_size <= sum(a.nbytes for a in live) + 16384
        man = _manifest(path)
        assert man["format_version"] == 2
        assert man["stored_bytes"] == sum(a.nbytes for a in live)
        zeros = {key: (shape, dtype) for key, shape, dtype in man["zeros"]}
        assert "r0/qc" in zeros and "r0/rho" not in zeros
        assert zeros["r0/qc"] == (list(st.q["qc"].shape), "<f8")
        assert {i.filename for i in infos}.isdisjoint(
            f"{key}.npy" for key in zeros)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spot", [(4, 4, 1), (0, 3, 2), (0, -1, 0)],
                             ids=["interior", "halo", "corner"])
    def test_a_lone_negative_zero_is_stored(self, tmp_path, dtype, spot):
        """``-0.0 == 0`` but it is not zero bits: the species is written,
        not listed under ``zeros``, and comes back with its sign."""
        grid = make_grid(6, 5, 4, 1000.0, 1000.0, 4000.0)
        st = _random_state(grid, dtype, np.random.default_rng(0),
                           zeroed=WATER_SPECIES)
        st.q["qr"][spot] = -0.0
        write_states(tmp_path / "c.npz", [st])
        zeros = [key for key, _, _ in _manifest(tmp_path / "c.npz")["zeros"]]
        assert "r0/qr" not in zeros and "r0/qs" in zeros
        back = read_states(tmp_path / "c.npz", [grid]).states[0]
        assert back.q["qr"].tobytes() == st.q["qr"].tobytes()
        assert np.signbit(back.q["qr"][spot])

    def test_save_counts_bytes_and_elided_arrays(self, tmp_path, case):
        sess = TraceSession(name="t")
        with use_session(sess):
            path = CheckpointManager(tmp_path).save(1, _fresh_state(case))
        counters = sess.metrics.as_dict()["counters"]
        assert counters["checkpoint.bytes"] == path.stat().st_size
        assert counters["checkpoint.zero_arrays"] == len(
            _manifest(path)["zeros"]) > 0

    def test_format_1_archive_still_reads(self, tmp_path, case):
        """What PRs <= 18 wrote: deflated, every array present, no
        ``zeros`` entry — through the same reader."""
        st = _fresh_state(case)
        manifest = {"format_version": 1, "step": 4, "time": st.time,
                    "n_ranks": 1, "phase": "long_step_boundary"}
        np.savez_compressed(
            tmp_path / "old.npz",
            manifest=np.frombuffer(json.dumps(manifest).encode(), np.uint8),
            species=np.array(sorted(st.q), dtype="U8"),
            **{f"r0/{n}": st.get(n) for n in st.prognostic_names()})
        ckpt = read_states(tmp_path / "old.npz", [case.grid])
        assert ckpt.step == 4
        for name in st.prognostic_names():
            assert (ckpt.states[0].get(name).tobytes()
                    == st.get(name).tobytes()), name

    def test_unknown_format_is_rejected(self, tmp_path, case):
        write_states(tmp_path / "c.npz", [_fresh_state(case)],
                     meta={"format_version": 3})
        with pytest.raises(ValueError, match="unsupported checkpoint format 3"):
            read_states(tmp_path / "c.npz", [case.grid])


_SHAPES = {1: [(6, 5, 4)],
           4: [(4, 3, 4), (4, 2, 4), (2, 3, 4), (2, 2, 4)]}


@settings(max_examples=15, deadline=None)
@given(zeroed=hs.sets(hs.sampled_from(WATER_SPECIES)),
       dtype=hs.sampled_from([np.float32, np.float64]),
       n_ranks=hs.sampled_from([1, 4]),
       precip=hs.sampled_from(["absent", "zero", "live"]),
       with_rng=hs.booleans(), seed=hs.integers(0, 2**16))
def test_generated_round_trip_is_bit_identical(tmp_path_factory, zeroed,
                                               dtype, n_ranks, precip,
                                               with_rng, seed):
    """Whatever subset of species is elided, every restored array equals
    the saved one byte for byte, halos, dtype and shape included."""
    rng = np.random.default_rng(seed)
    grids = [make_grid(nx, ny, nz, 1000.0, 1000.0, 4000.0)
             for nx, ny, nz in _SHAPES[n_ranks]]
    states = [_random_state(g, dtype, rng, zeroed) for g in grids]
    for st in states:
        st.time = 12.5
        if precip != "absent":
            st.precip_accum = (rng.random((st.grid.nx, st.grid.ny))
                               if precip == "live"
                               else np.zeros((st.grid.nx, st.grid.ny)))
    m = CheckpointManager(tmp_path_factory.mktemp("ck"))
    m.save(3, states, rng=rng if with_rng else None)
    ckpt = m.load(grids)

    assert ckpt.step == 3 and ckpt.time == 12.5
    assert ckpt.rng_state == (rng.bit_generator.state if with_rng else None)
    elided = {key for key, _, _ in ckpt.meta["zeros"]}
    for r, (st, back) in enumerate(zip(states, ckpt.states)):
        # stored sorted, restored in the model's order: the saved layout
        assert back.layout is st.layout
        assert {n for n in st.q if f"r{r}/{n}" in elided} == zeroed
        assert (f"r{r}/precip_accum" in elided) == (precip == "zero")
        pairs = [(st.get(n), back.get(n)) for n in st.prognostic_names()]
        if precip == "absent":
            assert back.precip_accum is None
        else:
            pairs.append((st.precip_accum, back.precip_accum))
        for saved, restored in pairs:
            assert restored.dtype == saved.dtype
            assert restored.shape == saved.shape
            assert restored.tobytes() == saved.tobytes()


# ------------------------------------------------------- damaged archives
def _flip_byte(path):
    """Flip one bit in the middle of the archive (inside array data)."""
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    path.write_bytes(bytes(raw))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


DAMAGE = {"flipped byte": _flip_byte, "truncated": _truncate,
          "emptied": lambda path: path.write_bytes(b""),
          "not an archive": lambda path: path.write_bytes(b"garbage" * 9)}


class TestDamagedArchive:
    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
    def test_load_raises_typed_error_with_path_and_step(self, tmp_path, case,
                                                        damage):
        m = CheckpointManager(tmp_path)
        damage(m.save(2, _fresh_state(case)))
        with pytest.raises(CheckpointError) as err:
            m.load([case.grid], step=2)
        assert err.value.step == 2 and err.value.path == m.path_for(2)
        with pytest.raises(CheckpointError):    # nothing older to fall to
            m.load([case.grid])

    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
    def test_load_falls_back_to_the_older_archive(self, tmp_path, case,
                                                  damage):
        m = CheckpointManager(tmp_path, keep=2)
        st = _fresh_state(case)
        m.save(2, st)
        st.time = 99.0
        damage(m.save(4, st))
        ckpt = m.load([case.grid])
        assert ckpt.step == 2 and ckpt.time != 99.0
        assert m.restores == 1

    def test_another_runs_archive_is_skipped_like_a_damaged_one(
            self, tmp_path, case):
        """Archives under one directory carry the identity of the run
        that wrote them: a foreign one is a typed error on a direct load
        and skipped on the way to the newest own one; an archive without
        the key (any written before it existed) belongs to anybody."""
        mine = CheckpointManager(tmp_path, keep=3, identity="mine")
        other = CheckpointManager(tmp_path, keep=3, identity="other")
        st = _fresh_state(case)
        CheckpointManager(tmp_path, keep=3).save(1, st)     # no key
        st.time = 2.0
        mine.save(2, st)
        st.time = 4.0
        other.save(4, st)
        assert "identity" not in mine.load([case.grid], step=1).meta
        with pytest.raises(CheckpointError, match="another run") as err:
            mine.load([case.grid], step=4)
        assert err.value.step == 4
        assert mine.load([case.grid]).step == 2
        assert other.load([case.grid]).step == 4
        mine.path_for(2).unlink()
        assert mine.load([case.grid]).step == 1
        mine.path_for(1).unlink()
        with pytest.raises(CheckpointError):
            mine.load([case.grid])

    def test_any_flipped_bit_or_cut_is_typed_or_harmless(self, tmp_path):
        """Walk a small archive: one flipped bit (data, npy header, zip
        local header, central directory) or a cut anywhere either raises
        CheckpointError or — in a field zipfile ignores — restores the
        very same bytes.  Never BadZipFile, never different data."""
        grid = make_grid(4, 3, 2, 1000.0, 1000.0, 2000.0)
        st = _random_state(grid, np.float64, np.random.default_rng(1),
                           zeroed=("qr", "qi", "qs", "qg", "qh"))
        want = [st.get(n).tobytes() for n in st.prognostic_names()]
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        write_states(good, [st])
        raw = good.read_bytes()
        variants = [raw[:cut] for cut in range(0, len(raw), 211)]
        for pos in range(0, len(raw), 7):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << (pos % 8)
            variants.append(bytes(flipped))
        typed = 0
        for data in variants:
            bad.write_bytes(data)
            try:
                back = read_states(bad, [grid]).states[0]
            except CheckpointError:
                typed += 1
            else:
                assert [back.get(n).tobytes()
                        for n in st.prognostic_names()] == want
        assert typed > 0.9 * len(variants)

    def test_wrong_grid_is_a_value_error_not_damage(self, tmp_path, case):
        m = CheckpointManager(tmp_path)
        m.save(1, _fresh_state(case))
        wrong = make_grid(10, 12, 10, 1000.0, 1000.0, 10000.0)
        with pytest.raises(ValueError, match="shape") as err:
            m.load([wrong])
        assert not isinstance(err.value, CheckpointError)
