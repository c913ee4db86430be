"""The decomposed exchange sequence, pinned.

Recorded at the commit before the long step was folded into one body
(``AsucaModel.long_step``): the field list of every halo exchange of one
long step, in order, and the ``SimComm`` traffic of three steps.  The
bench's ``decomp_2x2`` digest hashes the message and byte counts and the
rank checksums include halos, so any reordering, added or dropped
exchange shows up here first, by name.
"""
import pytest

from repro.api import Experiment, RunSpec
from repro.constants import WATER_SPECIES
from repro.core.acoustic import ACOUSTIC_FIELDS
from repro.stencil import native

MOIST = list(WATER_SPECIES)


def _long_step(post_physics):
    """refresh-all, then per RK3 stage (1, 3, 6 substeps at ns = 6) the
    acoustic exchanges and one moisture exchange, then the physics one."""
    seq = [None]
    for nsub in (1, 3, 6):
        seq += [ACOUSTIC_FIELDS] * nsub + [MOIST]
    return seq + [post_physics]


@pytest.mark.parametrize("workload,ice,post_physics,messages,nbytes", [
    # physics + Davies relaxation on open edges (nothing after relaxation)
    ("real-case", False, ["rhotheta", "qv", "qc", "qr", "rho"],
     2112, 5816448),
    ("warm-bubble", True, ["rhotheta", "qv", "qc", "qr", "rho", "qi", "qs"],
     4320, 11890944),
])
def test_exchange_sequence_and_traffic(workload, ice, post_physics,
                                       messages, nbytes):
    exp = Experiment(RunSpec(workload=workload, nx=16, ny=16, nz=8, steps=3,
                             ranks=(2, 2), ice=ice)).prepare()
    machine = exp.machine
    seen = []
    exchange = machine.exchanger.exchange

    def recording(states, names=None, **kw):
        seen.append(None if names is None else list(names))
        return exchange(states, names, **kw)

    machine.exchanger.exchange = recording
    machine.comm.stats.reset()
    exp.advance(1)
    assert seen == _long_step(post_physics)
    before = native.PROGRAMS["replayed"]
    exp.advance(2)
    # a replayed step exchanges inside the recorded program, which credits
    # the same traffic: the whole step, or, where the program does not
    # take the cold rain, all but the physics one
    replayed = native.PROGRAMS["replayed"] - before
    assert seen == ((3 - replayed) * _long_step(post_physics)
                    + replayed * [post_physics] * ice)
    assert replayed == (2 if native.kernels() else 0)
    assert machine.comm.stats.messages == messages
    assert machine.comm.stats.bytes_total == nbytes


@pytest.mark.parametrize("ranks,digest", [
    ((1, 3), "6496bac34d49244606778f959d152f3fc509f25c04e2ded46ec210171a5eb052"),
    ((3, 1), "539822f999eae8c9fd8aad9c8dcb6af7d754e202a21241d2c686b647f64066f2"),
])
def test_own_neighbour_seam_row_is_byte_neutral(ranks, digest):
    """Where a rank is its own periodic neighbour, its strip table carries
    the single-domain fill's seam row (``arr[h + n] = arr[h]`` on the
    staggered axis).  The dycore computes both images of that face equal,
    so every rank array, halos included, is what it was before the row
    existed: the digests were recorded without it."""
    import hashlib

    import numpy as np

    exp = Experiment(RunSpec(workload="warm-bubble", nx=16, ny=16, nz=8,
                             steps=3, ranks=ranks)).prepare()
    exp.advance(3)
    h = hashlib.sha256()
    for st in exp.rank_states:
        for name in st.prognostic_names():
            h.update(np.ascontiguousarray(st.get(name)).tobytes())
    assert h.hexdigest() == digest
