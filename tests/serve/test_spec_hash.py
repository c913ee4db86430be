"""RunSpec.spec_hash — the content identity the result cache keys on —
and the hardened parse_ranks validation."""
import pytest

from repro.api import Experiment, RunSpec, parse_ranks


# ---------------------------------------------------------- spec_hash
def test_hash_is_stable_across_calls_and_instances():
    a = RunSpec(workload="warm-bubble", nx=16, ny=16, nz=8, steps=3)
    b = RunSpec(workload="warm-bubble", nx=16, ny=16, nz=8, steps=3)
    assert a.spec_hash() == b.spec_hash() == a.spec_hash()
    assert len(a.spec_hash()) == 64            # sha256 hex


def test_semantic_changes_change_the_hash():
    base = RunSpec(workload="warm-bubble", steps=3)
    assert base.spec_hash() != RunSpec(workload="warm-bubble",
                                       steps=4).spec_hash()
    assert base.spec_hash() != RunSpec(workload="shear-layer",
                                       steps=3).spec_hash()
    assert base.spec_hash() != RunSpec(workload="warm-bubble", steps=3,
                                       ice=True).spec_hash()


def test_equivalent_normalizations_hash_identically():
    # ranks as a string vs a tuple describe the same decomposition
    s = RunSpec(backend="multigpu", ranks="2x2", steps=2)
    t = RunSpec(backend="multigpu", ranks=(2, 2), steps=2)
    assert s.spec_hash() == t.spec_hash()
    # backend 'auto' resolves before hashing
    assert (RunSpec(backend="auto", ranks=(2, 1), steps=2).spec_hash()
            == RunSpec(backend="multigpu", ranks=(2, 1), steps=2)
            .spec_hash())


def test_observability_fields_never_affect_the_hash(tmp_path):
    # backend pinned: with 'auto', tracing flags legitimately change the
    # resolved backend (gpu vs cpu), which IS semantic
    plain = RunSpec(steps=2, backend="gpu")
    traced = RunSpec(steps=2, backend="gpu",
                     trace_path=str(tmp_path / "t.json"),
                     metrics=True, profile=True, summary=True,
                     history_path=str(tmp_path / "h.nc"))
    assert plain.spec_hash() == traced.spec_hash()


def test_profile_never_changes_what_runs():
    # --profile opens a session to read the phase spans from, but unlike
    # the trace/metrics/summary outputs it must not resolve 'auto' to the
    # device-backed backend
    assert RunSpec(profile=True).normalized().backend == "cpu"
    assert not RunSpec(profile=True).wants_session()
    assert RunSpec(metrics=True).normalized().backend == "gpu"
    exp = Experiment(RunSpec(workload="warm-bubble", nx=16, ny=16, nz=8,
                             steps=1, ranks=(2, 1), profile=True)).prepare()
    assert exp.session is not None and exp.machine.devices is None


#: spec_hash() of representative specs, taken at the commit before the
#: host-phase timing moved onto the session (PR 22); a cache or checkpoint
#: written by any earlier version must keep resolving
PINNED_HASHES = [
    (RunSpec(),
     "c3847f57aaef4497c8fef832446bc3d8395d470d6c61382fbc71645dff7bc31f"),
    (RunSpec(workload="warm-bubble", nx=16, ny=16, nz=8, steps=3),
     "e45c8f52305ff8257e9be3d9c15a6ff8313578f4b8c5747b6f204e7d88866ffe"),
    (RunSpec(workload="real-case", nx=32, ny=32, nz=16, steps=10,
             backend="multigpu", ranks=(2, 2), metrics=True, seed=3),
     "2d40ce8bf96fae1d1dcdfbaba1691fdee96a2373d103cdc2bbb65190e2268282"),
    (RunSpec(workload="mountain-wave", steps=2, trace_path="t.json",
             profile=True),
     "a77c9f866cbeb04079172252190d91375b178c617e86b378d27eb39c4ccd9a97"),
    (RunSpec(workload="vortex", nx=24, ny=24, nz=12, steps=4,
             faults="crash@3", checkpoint_every=2, checkpoint_dir="ck",
             seed=7),
     "8cebcd1e18c52ef0f34c889e917145d97b7c5a52dd890e7fc9496215f28d6985"),
    (RunSpec(workload="shear-layer", steps=5, ice=True, profile=True,
             dt=2.0),
     "ca282666bd11e1c6f0e3df500591c72237bbb3b26781e5eade006a73b2f12a8b"),
]


@pytest.mark.parametrize("spec, digest", PINNED_HASHES)
def test_historical_spec_hashes_stay_valid(spec, digest):
    assert spec.spec_hash() == digest


def test_fault_plan_is_semantic():
    assert (RunSpec(steps=5).spec_hash()
            != RunSpec(steps=5, faults="drop@1").spec_hash())
    # string and parsed forms of the same plan agree
    from repro.resilience.faults import FaultPlan
    assert (RunSpec(steps=5, faults="drop@1").spec_hash()
            == RunSpec(steps=5,
                       faults=FaultPlan.parse("drop@1")).spec_hash())


def test_run_result_carries_the_spec_hash():
    spec = RunSpec(workload="warm-bubble", nx=16, ny=16, nz=8, steps=1)
    result = Experiment(spec).prepare().run()
    assert result.spec_hash == spec.spec_hash()


# --------------------------------------------------------- parse_ranks
def test_parse_ranks_accepted_forms():
    assert parse_ranks(None) is None
    assert parse_ranks("2x3") == (2, 3)
    assert parse_ranks("4X1") == (4, 1)        # case-insensitive
    assert parse_ranks((3, 2)) == (3, 2)
    assert parse_ranks([2, 2]) == (2, 2)


@pytest.mark.parametrize("bad", ["abc", "2x", "x2", "1x2x3", "2.5x2"])
def test_parse_ranks_rejects_malformed_strings(bad):
    with pytest.raises(ValueError):
        parse_ranks(bad)


@pytest.mark.parametrize("bad", ["0x2", "2x0", "-1x2", (0, 4), (2, -3)])
def test_parse_ranks_rejects_non_positive_counts(bad):
    with pytest.raises(ValueError, match=">= 1"):
        parse_ranks(bad)


def test_normalized_propagates_rank_validation():
    with pytest.raises(ValueError):
        RunSpec(backend="multigpu", ranks="0x4").normalized()


# ------------------------------------------------------------ semantic seed
def test_unset_seed_is_hash_invisible():
    # every spec hashed before the seed field existed must keep its hash:
    # seed=None stays out of the canonical form entirely
    plain = RunSpec(workload="warm-bubble", steps=3)
    assert "seed" not in plain.canonical_dict()
    assert (plain.spec_hash()
            == RunSpec(workload="warm-bubble", steps=3,
                       seed=None).spec_hash())


def test_set_seed_is_semantic():
    base = RunSpec(workload="warm-bubble", steps=3)
    seeded = RunSpec(workload="warm-bubble", steps=3, seed=1)
    assert seeded.canonical_dict()["seed"] == 1
    assert base.spec_hash() != seeded.spec_hash()
    assert seeded.spec_hash() != RunSpec(workload="warm-bubble", steps=3,
                                         seed=2).spec_hash()
