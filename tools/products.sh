#!/usr/bin/env bash
# The product commands: every CLI smoke run with its assertion, every
# benchmark file with the bench regression gate, the paper reports and
# `repro reproduce`, the host benchmark smoke, and the examples.  This is
# the one list: CI's `products` job runs it through tools/reach.py, which
# also records which defs of src/repro each command reaches
# (docs/REACH.md).
#
#     bash tools/products.sh [OUTDIR]     # from the repository root
#
# Artifacts land in OUTDIR (default products-out/).  Any failed command or
# assertion ends the run with a non-zero status.
set -euo pipefail
out=${1:-products-out}
mkdir -p "$out"
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
step() { echo "== $*" >&2; }
repro() { python -m repro "$@"; }
# run "$@" and require exit status 1 (a gate that must fire)
fires() { local rc=0; "$@" || rc=$?; test "$rc" -eq 1; }

# ----------------------------------------------------------------- stencil
# first, so that a cold cache pays the build here (its time is in the line)
step "compiled bodies: the state with a compiler, and with CC=/bin/false"
python -c "from repro.stencil import native; print(native.library().report())" > "$out/native-present.txt"
grep -q 'native\[loaded\]' "$out/native-present.txt"
CC=/bin/false python -c "from repro.stencil import native; print(native.library().report())" > "$out/native-absent.txt"
grep -q 'native\[no-compiler\]' "$out/native-absent.txt"

step "default smoke run takes the fused path and prints the executor report"
repro run shear-layer --nx 16 --ny 16 --nz 12 --steps 3 > "$out/shear.txt"
grep -q 'stencil\[fused\]' "$out/shear.txt"
step "a dry run reports the seven species it did not transport; an ice-on run completes"
repro run vortex --nx 16 --ny 16 --nz 8 --steps 3 > "$out/vortex-dry.txt"
grep -q 'inactive: qv qc qr qi qs qg qh' "$out/vortex-dry.txt"
repro run shear-layer --nx 16 --ny 16 --nz 12 --ice --steps 3 > /dev/null

step "the bench shapes on the compiled bodies (a decomposed terrain run, a warm bubble on cpu, a vortex): no declined call; every body on NumPy without a compiler"
shapes=("decomp real-case --backend multigpu --ranks 2x2 --nx 32 --ny 32 --nz 16"
        "bubble warm-bubble --backend cpu --nx 24 --ny 24 --nz 12"
        "vortex vortex --nx 24 --ny 24 --nz 12")
for cc in present absent; do
  cc_env=(); state=loaded
  if [ "$cc" = absent ]; then cc_env=(CC=/bin/false); state=no-compiler; fi
  for shape in "${shapes[@]}"; do
    read -r name args <<< "$shape"
    # shellcheck disable=SC2086  # args is a word list
    env "${cc_env[@]}" python -m repro run $args --steps 2 > "$out/$name-$cc.txt"
    # a loaded library's declined calls end the line with
    # "; N slow stages on NumPy (reason)", per body and reason
    if grep ' on NumPy (' "$out/$name-$cc.txt"; then exit 1; fi
    grep -q "native\[$state\]" "$out/$name-$cc.txt"
  done
done

step "the native stats line of a run: no reference dispatch with a library, the warm rain and the halo fills without one"
repro run warm-bubble --nx 16 --ny 16 --nz 8 --steps 2 > "$out/run-present.txt"
grep -q ', 0 reference)' "$out/run-present.txt"
CC=/bin/false python -m repro run warm-bubble --nx 16 --ny 16 --nz 8 --steps 2 > "$out/run-absent.txt"
grep -Eq ', [1-9][0-9]* reference\)' "$out/run-absent.txt"

# ------------------------------------------------------------------- bench
step "host benchmark smoke: every verify check, the same sim_digests with and without the library"
python3 bench/run.py --quick > "$out/bench-quick-present.txt"
CC=/bin/false python3 bench/run.py --quick > "$out/bench-quick-absent.txt"
diff <(grep '^sim_digest' "$out/bench-quick-present.txt") \
     <(grep '^sim_digest' "$out/bench-quick-absent.txt")
step "host benchmark, traced: the per-layer metrics"
python3 bench/run.py --layers --quick > "$out/bench-layers.txt"
step "import-time ranking of the cold start (the budget itself is tests/test_import_budget.py)"
python -X importtime -c "import repro.api" 2> "$out/importtime-repro-api.txt"

# -------------------------------------------------------------- resilience
step "crash-recover smoke: every archive member stored, not deflated"
repro run --faults crash@3 --checkpoint-every 2 --checkpoint-dir "$out/ck" --steps 5 > /dev/null
python - "$out/ck" <<'PY'
import glob, sys, zipfile
z = zipfile.ZipFile(sorted(glob.glob(sys.argv[1] + "/ckpt-*.npz"))[-1])
assert z.testzip() is None, z.infolist()
assert all(i.compress_type == zipfile.ZIP_STORED for i in z.infolist()), z.infolist()
PY
step "transport faults are accounting: a recovered 2x2 real case gathers the fault-free fields, with and without a compiler"
for cc in present absent; do
  cc_env=(); if [ "$cc" = absent ]; then cc_env=(CC=/bin/false); fi
  env "${cc_env[@]}" python - > "$out/faults-$cc.txt" <<'PY'
import hashlib
from repro.api import Experiment, RunSpec
from repro.resilience.faults import FaultPlan

def run(faults):
    res = Experiment(RunSpec("real-case", nx=16, ny=16, nz=8, steps=3,
                             ranks=(2, 2), faults=faults)).prepare().run()
    digest = hashlib.sha256()
    for name in res.state.prognostic_names():
        digest.update(res.state.get(name).tobytes())
    return digest.hexdigest(), res.retry_stats

clean, _ = run(None)
faulty, stats = run(FaultPlan.parse("drop@1,corrupt@1,delay@1"))
print("fields", clean, faulty, "retries", stats.retries)
assert faulty == clean and stats.retries > 0, (clean, faulty, stats)
PY
done

# ---------------------------------------------------------------- analysis
step "asuca-lint, the dataflow pass with its SARIF export, sanitized smoke runs"
repro analyze --lint src/repro
repro analyze --dataflow --sarif "$out/analysis.sarif"
repro analyze --racecheck --smoke --ranks 2x2 --steps 2
step "the racecheck gate has teeth: a schedule minus its corner edge must fail"
fires repro analyze --racecheck --seed-hazard missing-event > "$out/racecheck-seeded.txt"
grep -q RACE01 "$out/racecheck-seeded.txt"
step "the stale-halo gate has teeth: a 2x2 driver whose substep drops rhov must give exactly one LINT04"
python - > "$out/dataflow-seeded.txt" <<'PY'
from repro.analysis.poison import Config, poison_findings
from repro.core.acoustic import AcousticStepper

substep = AcousticStepper.substep
AcousticStepper.substep = lambda self: [n for n in substep(self) if n != "rhov"]
found = poison_findings([Config((2, 2), (False, False))])
print("\n".join(f.text() for f in found))
assert [f.code for f in found] == ["LINT04"], found
PY
step "the sanitizer stays clean: every pass"
repro analyze

# ------------------------------------------------------------------- serve
step "Poisson workload smoke: 30 jobs, a 4-GPU fleet, executed"
repro serve --jobs 30 --gpus 4 --policy sjf --trace "$out/serve-trace.json" --jobs-table > /dev/null
step "100-job Poisson serve with the flight recorder, the trace and the exports"
repro serve --jobs 100 --gpus 8 --policy sjf --no-execute \
  --trace-jsonl "$out/serve.jsonl" --flight-recorder "$out/flight.jsonl" \
  --prometheus "$out/fleet.prom" --timeseries-csv "$out/fleet.csv" \
  --profile-scheduler > /dev/null
grep -q 'repro_queue_depth' "$out/fleet.prom"
step "repro top replays the exported trace"
repro top --replay "$out/serve.jsonl" > /dev/null
step "a crash fault auto-dumps the flight recorder"
repro serve --jobs 8 --gpus 2 --seed 3 --rate 40 --no-execute \
  --faults crash@1:x5 --flight-recorder "$out/crash-flight.jsonl" > /dev/null
python - "$out/crash-flight.jsonl" <<'PY'
import sys
from repro.obs import load_flight_dump
header, events = load_flight_dump(sys.argv[1])
assert header["tripped_by"] == "crash", header
assert events[-1]["kind"] == "crash", events[-1]
PY
step "SLO alerting fires on a saturated fleet"
fires repro serve --jobs 30 --gpus 4 --no-execute --slo 'queue_depth<1' --json > "$out/slo-report.json"
python -c "import json, sys; assert json.load(open(sys.argv[1]))['alerts'], 'no alert fired'" "$out/slo-report.json"

# ---------------------------------------------------------------- ensemble
step "8-member vortex ensemble with one member crashed past its budget"
fires repro ensemble vortex --members 8 --steps 2 --nx 16 --ny 16 --nz 8 \
  --faults crash@3:x2 --max-retries 1 --json > "$out/ensemble-report.json"
python - "$out/ensemble-report.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["product"]["coverage"] == 7 / 8, doc["product"]["coverage"]
assert doc["members"]["3"] == "evicted", doc["members"]
PY
step "a clean ensemble exits 0 with full coverage"
repro ensemble vortex --members 4 --steps 2 --nx 16 --ny 16 --nz 8 > /dev/null

# ------------------------------------------------------------------ doctor
step "overlap diagnosis: the 2x2 model step must hide communication"
repro doctor --ranks 2x2 --min-hidden 0.05 > /dev/null
step "trace diagnosis of a 2x2 dycore smoke trace"
repro trace warm-bubble --nx 16 --ny 16 --nz 8 --steps 2 --ranks 2x2 -o "$out/smoke-trace.json" > /dev/null
repro doctor --trace "$out/smoke-trace.json" > /dev/null
step "the smoke trace's device ops (host spans excluded) are the pinned ones"
python - "$out/smoke-trace.json" <<'PY'
import hashlib, json, sys
h = hashlib.sha256()
for e in json.load(open(sys.argv[1]))["traceEvents"]:
    if e.get("ph") == "X" and e.get("cat") in ("kernel", "h2d", "d2h", "mpi"):
        h.update(json.dumps(e, sort_keys=True).encode())
pinned = "cce8da30f8d7fb7f93773100e061d5fc9bed74065e62d21bbb391866d7c211d6"
assert h.hexdigest() == pinned, h.hexdigest()
PY
step "live roofline: a counted 2x2 smoke, then doctor --roofline on it and on a fresh run"
repro run shear-layer --nx 16 --ny 16 --nz 12 --steps 2 --ranks 2x2 --counters \
  --trace-jsonl "$out/counted.jsonl" > /dev/null
repro doctor --roofline --trace "$out/counted.jsonl" > /dev/null
repro doctor --roofline > /dev/null
step "counted ice smoke: the gpu backend charges and measures cold_rain"
repro run shear-layer --nx 16 --ny 16 --nz 12 --steps 1 --backend gpu --ice \
  --counters --trace-jsonl "$out/ice.jsonl" > /dev/null
repro doctor --roofline --trace "$out/ice.jsonl" > "$out/ice-roofline.txt"
grep -q cold_rain "$out/ice-roofline.txt"
step "the roofline drift gate has teeth: injected cost-table drift must fail"
fires repro doctor --roofline --steps 1 --seed-drift advection:25 > "$out/roofline-drift.txt"
grep -q ROOF01 "$out/roofline-drift.txt"

# -------------------------------------------------------------- benchmarks
# Every benchmark file: the producers of the paper reports EXPERIMENTS.md
# quotes and of the BENCH_*.json artifacts.  They rewrite
# benchmarks/reports in place, wall-clock reports included; the checked-in
# files are put back before `repro reproduce` reads them (and on exit).
step "every benchmark file: the paper reports and the BENCH artifacts"
rm -rf "$out/reports-checked-in"
cp -r benchmarks/reports "$out/reports-checked-in"
trap 'cp "$out"/reports-checked-in/* benchmarks/reports/' EXIT
PYTHONPATH="$PWD/benchmarks:$PYTHONPATH" python -m pytest -x -q benchmarks > /dev/null

# The bench regression gate: every BENCH_<name>.json, as its benchmark
# (test) just rewrote it, against the checked-in copy (wall-clock keys
# ignored).  A new BENCH file needs a row here (tests/obs/test_regress.py
# checks that).
regress=(
  "ensemble test_ensemble.py 0.05"
  "fig10_weak_scaling test_fig10_weak_scaling.py 0.05"
  "roofline test_roofline_accounting.py 0.1"
  "scheduler test_scheduler_profile.py 0.05"
  "serve test_serve_service.py 0.05"
  "stencil_fusion test_stencil_fusion.py 0.05"
)
for entry in "${regress[@]}"; do
  read -r name test rel_tol <<< "$entry"
  step "bench regression gate: BENCH_$name.json against its checked-in copy"
  repro doctor --regress "benchmarks/reports/BENCH_$name.json" \
    --baseline "$out/reports-checked-in/BENCH_$name.json" --rel-tol "$rel_tol"
done

step "the modeled paper reports are what the producers emit today"
# tier-1 holds the same equalities without pytest-benchmark
# (tests/perf/test_figures.py, tests/test_reproduce.py)
git diff --exit-code benchmarks/reports/test_fig*.txt \
  benchmarks/reports/test_table1*.txt benchmarks/reports/test_sec7*.txt \
  benchmarks/reports/test_overlap_method_ablation.txt \
  ':!benchmarks/reports/test_fig12_*.txt'
step "EXPERIMENTS.md is a fixed point of repro reproduce over the checked-in reports"
cp "$out"/reports-checked-in/* benchmarks/reports/
repro reproduce > /dev/null
git diff --exit-code EXPERIMENTS.md

# ---------------------------------------------------------------- examples
for example in examples/*.py; do
  step "example: $example"
  python "$example" > "$out/example-$(basename "$example" .py).txt"
done
