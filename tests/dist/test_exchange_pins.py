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
    exp.advance(2)
    assert seen == 3 * _long_step(post_physics)
    assert machine.comm.stats.messages == messages
    assert machine.comm.stats.bytes_total == nbytes
