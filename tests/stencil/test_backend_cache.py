"""Backend choice is non-semantic: spec hashes and cached results are
shared across stencil backends (ISSUE: stencil_backend must not change
``canonical_dict()``/``spec_hash()``)."""
import pytest

from repro.api import Experiment, RunSpec
from repro.serve import ResultCache

_SMALL = dict(workload="shear-layer", steps=2, nx=16, ny=16, nz=12)


def test_stencil_backend_is_excluded_from_canonical_dict():
    assert "stencil_backend" in RunSpec._NON_SEMANTIC_FIELDS
    d = RunSpec(**_SMALL).canonical_dict()
    assert "stencil_backend" not in d


def test_spec_hash_is_identical_across_backends():
    hashes = {RunSpec(stencil_backend=b, **_SMALL).spec_hash()
              for b in ("auto", "reference", "fused")}
    assert len(hashes) == 1


def test_semantic_fields_still_change_the_hash():
    base = RunSpec(**_SMALL).spec_hash()
    assert RunSpec(**{**_SMALL, "steps": 3}).spec_hash() != base


def test_result_cache_hits_across_backends():
    """A result computed under the fused backend answers a reference
    submission of the same run (and vice versa) — duplicate forecasts
    stay free no matter which executor produced them."""
    cache = ResultCache(8)
    fused_spec = RunSpec(stencil_backend="fused", **_SMALL)
    result = Experiment(fused_spec).run()
    cache.put(result.spec.spec_hash(), result)

    ref_spec = RunSpec(stencil_backend="reference", **_SMALL)
    hit = cache.get(ref_spec.spec_hash())
    assert hit is result
    assert cache.hits == 1 and cache.misses == 0


def test_invalid_stencil_backend_rejected():
    with pytest.raises(ValueError, match="stencil backend"):
        RunSpec(stencil_backend="cuda", **_SMALL).normalized()
