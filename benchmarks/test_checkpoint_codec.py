"""What a checkpoint costs on this machine, and what it would cost written
three other ways.

The state is the one ``bench/``'s ``ensemble_recover`` workload
checkpoints: a 24x24x12 dry vortex after two long steps (five live
float64 fields, seven all-zero water species).  Every variant keeps the
shipped protocol — tmp sibling, flush, fsync, ``os.replace`` — so the
rows differ only in how the bytes are encoded:

* ``deflated``      what format 1 did (``np.savez_compressed``, every array);
* ``stored``        ``np.savez``, every array;
* ``shipped``       ``write_states``: stored, all-zero arrays only named;
* ``one buffer``    the floor a hand-rolled container could reach: the
                    live arrays joined into one ``bytes``, one ``write``
                    (closed route a: no header, no offsets, no CRC);
* ``writer thread`` closed route b: the shipped save on a thread while the
                    next long step runs, against the two run in sequence.

The recorded block at the end is the acceptance measurement of PR 19
(``bench/run.py``, parent vs change); it is a record, not re-measured.
"""
import json
import os
import statistics
import threading
import time

import numpy as np

from repro.api import make_case
from repro.core.state import zero_bits
from repro.resilience.checkpoint import read_states, write_states

ROUNDS = 15

RECORDED = """\
Recorded with PR 19 (a record of the acceptance runs, not re-measured here).

ensemble_recover, ten alternating parent/change pairs of
`python3 bench/run.py --workload ensemble_recover --seconds 18`, seeds 21-23
and 31-37 (seven unseen during development), median [quartiles]; every
sim_digest equal to the parent's, every verify check ok:
  metric        parent                    change                    delta    pairs won
  op_ms         160.2 [154.4, 162.3]      117.6 [114.7, 122.2]      -26.6 %  10 / 10
  setup_s       0.841 [0.829, 0.849]      0.791 [0.777, 0.833]       -5.9 %   9 / 10
  peak_rss_mb   90.55 [90.41, 90.59]      90.65 [90.48, 90.81]       +0.1 %   4 / 10
  per pair, op_ms: 162.6/117.8 144.8/120.7 159.9/111.1 164.7/122.7 155.8/114.5
                   160.5/111.6 178.5/122.9 161.5/115.2 153.9/123.6 152.5/117.5

All four workloads interleaved (`python3 bench/run.py --seconds 18`), three
alternating pairs, seeds 51-53, op_ms parent -> change per pair:
  dycore_cpu        192.3 169.4 169.4 -> 188.3 174.3 171.6   (median +2.9 %)
  decomp_2x2        136.2 115.6 118.4 -> 130.5 117.5 121.7   (median +2.7 %)
  serve_stream       54.4  48.7  46.8 ->  50.3  53.7  51.8   (median +6.4 %)
  ensemble_recover  190.4 163.0 165.7 -> 138.4 135.6 127.1   (median -18.2 %)
serve_stream alone, four more pairs (seeds 61-64): 63.8/60.8 63.4/65.3 58.6/61.8
60.4/60.5, median 61.9 -> 61.2: run-to-run noise; none of the three constructs a
CheckpointManager.  setup_s and peak_rss_mb within bounds on every workload
(worst: serve_stream setup_s 0.79 -> 0.92 over those three pairs, 1.18 -> 1.11
over the four stand-alone ones).

Where it went (`--layers`, ensemble_recover, unscaled ms on a box whose load
average was 0.8-1.7 throughout; three parent/change runs, seeds 41-43):
  resilience.ckpt_save_ms     27.8 / 21.7 / 34.3  ->  5.7 / 6.6 / 6.1
  resilience.ckpt_load_ms      7.4 /  6.2 /  8.8  ->  2.3 / 2.4 / 2.5
  resilience.ckpt_kb         304.9                ->  447.3   (the stated trade)
  saves / loads / recoveries per op   2 / 1 / 1   ->  2 / 1 / 1
The issue's "<= 5 ms a save" was sized where the parent read 19 ms; here the
parent read 22-34 ms in the traced runs and the change 5.7-6.6 (a mean that
keeps fsync outliers).  Timed inside the workload without the tracer: save
3.9 ms median (np.savez 1.2, fsync 1.2, two os.replace 0.7, prune 0.1), load 2.6.

cProfile of one round (8 members), ranked by own time:
  parent  1.85 s: zlib.compress 0.275 (14.9 %) > _substep_impl 0.238 > _faces 0.219
                  CheckpointManager.save 0.391 cumulative (21.2 %), .load 0.072 (3.9 %)
  change  1.39 s: _substep_impl 0.218 > _faces 0.201 > _advect 0.091
                  CheckpointManager.save 0.080 cumulative (5.8 %), .load 0.032 (2.3 %)"""


def _atomically(path, write):
    """The shipped protocol around an arbitrary encoder."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        write(f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _median_ms(fn):
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def test_checkpoint_codec(benchmark, emit, tmp_path):
    case = make_case("vortex", nx=24, ny=24, nz=12, seed=1)
    model, st = case.model, case.state
    for _ in range(2):
        st = model.step(st)
    path = tmp_path / "c.npz"
    fields = {f"r0/{n}": st.get(n) for n in st.prognostic_names()}
    live = [a for a in fields.values() if not zero_bits(a)]
    live_bytes = sum(a.nbytes for a in live)
    manifest = {"format_version": 1, "step": 2, "time": st.time,
                "n_ranks": 1, "phase": "long_step_boundary"}
    full = dict(fields, species=np.array(sorted(st.q), dtype="U8"),
                manifest=np.frombuffer(json.dumps(manifest).encode(),
                                       np.uint8))

    writers = {
        "deflated": lambda: _atomically(
            path, lambda f: np.savez_compressed(f, **full)),
        "stored": lambda: _atomically(path, lambda f: np.savez(f, **full)),
        "shipped": lambda: write_states(path, [st], step=2),
        "one buffer": lambda: _atomically(
            path, lambda f: f.write(b"".join(a.tobytes() for a in live))),
    }
    rows = []
    for name, write in writers.items():
        ms = (benchmark.pedantic(lambda: _median_ms(write), rounds=1,
                                 iterations=1)
              if name == "shipped" else _median_ms(write))
        size = path.stat().st_size
        load = (None if name == "one buffer" else
                _median_ms(lambda: read_states(path, [case.grid])))
        rows.append((name, ms, size, load))
    by = {r[0]: r for r in rows}

    # route b: what a writer thread hides of one save behind one long
    # step — paired rounds, because a step's own jitter is about a save
    save_ms = by["shipped"][1]

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return 1e3 * (time.perf_counter() - t0)

    def in_sequence():
        model.step(st)
        write_states(path, [st], step=2)

    def overlapped():
        t = threading.Thread(target=write_states, args=(path, [st]),
                             kwargs={"step": 2})
        t.start()
        model.step(st)
        t.join(timeout=60)
        assert not t.is_alive()

    hidden = sorted(timed(in_sequence) - timed(overlapped)
                    for _ in range(2 * ROUNDS))
    q1, med, q3 = (hidden[len(hidden) * k // 4] for k in (1, 2, 3))

    lines = ["Checkpoint codec — one 24x24x12 vortex state "
             f"({live_bytes / 1e3:.0f} KB live, "
             f"{sum(a.nbytes for a in fields.values()) / 1e3:.0f}"
             f" KB with its seven zero species), median of {ROUNDS}",
             f"{'variant':>12}  {'save [ms]':>9}  {'archive [KB]':>12}  "
             f"{'load [ms]':>9}"]
    for name, ms, size, load in rows:
        lines.append(f"{name:>12}  {ms:9.2f}  {size / 1e3:12.1f}  "
                     + (f"{load:9.2f}" if load is not None else f"{'-':>9}"))
    lines += [
        "",
        f"closed route a (one-buffer container): floor {by['one buffer'][1]:.2f}"
        f" ms vs shipped {save_ms:.2f} ms -> at most "
        f"{save_ms - by['one buffer'][1]:.2f} ms a save for header/offset/CRC"
        " code np.savez/np.load already are",
        f"closed route b (writer thread): a {save_ms:.2f} ms save run beside "
        f"the next long step instead of before it hides {med:+.2f} "
        f"[{q1:+.2f}, {q3:+.2f}] ms ({2 * ROUNDS} paired rounds, median "
        "[quartiles]): zip bookkeeping holds the GIL, only the fsync "
        "overlaps, and the crash path would need a join",
        "",
        RECORDED,
    ]
    emit("\n".join(lines))

    # structure, not speed: nothing deflated, zeros elided, and the
    # ordering the change rests on
    assert by["shipped"][2] <= live_bytes + 16384
    assert by["stored"][2] > by["shipped"][2] > by["deflated"][2]
    assert by["shipped"][1] < by["deflated"][1]
