#!/usr/bin/env bash
# Repository CI gate: build, tests, formatting, lints.
# Run from the repo root; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
# The supervision layer's fault matrix, by name: a fast, loud signal when
# only the fault-tolerance paths regress.
cargo test -q -p rsr-integration --test fault_injection
# The packed-log equivalence suite, by name: the compact representation
# must stay observationally identical to the seed's record layout.
cargo test -q -p rsr-integration --test packed_equivalence
# The leader/follower pipeline suite, by name: pipelined runs must stay
# bit-identical to the sequential engine at every (threads, depth).
cargo test -q -p rsr-integration --test pipeline_equivalence
# The partitioned-reconstruction suite, by name: index-driven per-set
# reverse scans and the indexed demand scan must stay bit-identical to the
# tests-crate oracles (tests/src/oracle/: the sequential full scan and the
# hash-map counter inference), on the paper machine and on wide L2s, under
# full seals and under budget-window seals (indexes covering only the
# newest pct of the log, with the GHR derived at the window start); and
# logs under window retention (rings keeping only the newest pct of each
# stream, older GHR history from the evicted-outcome register) must
# reconstruct and account exactly as the full log does.
cargo test -q -p rsr-integration --test recon_partition
# The golden digests, by name: est_ipc bits, log_records, every
# reconstruction counter, and a per-cluster CPI hash for all nine
# workloads under None, S$BP, and R$BP 20%/100% must never drift.
cargo test -q -p rsr-integration --test golden
# The sweep-engine suite, by name: every config of a one-cold-pass sweep
# must stay bit-identical to its standalone run — including mixed-budget
# sweeps, whose shared capture retains the widest config's window — and
# supervision must compose unchanged through the capture pass.
cargo test -q -p rsr-integration --test sweep_equivalence
# The service fault matrix, by name: worker panics, corrupt cache entries,
# deadlines, overload shedding, stalls, and kill-and-restart recovery all
# must settle as typed statuses, and cache hits must stay bit-identical.
cargo test -q -p rsr-integration --test serve_robustness
# The functional-core equivalence suite, by name: the superblock fast
# path must retire bit-identical streams to the reference interpreter
# over randomized programs (page-crossing memory, division edges, halts
# mid-block).
cargo test -q -p rsr-integration --test func_equivalence
# The detailed-window kernel equivalence suite, by name: the SoA cache,
# packed gshare, bitset BTB, and inline RAS must stay bit-identical to
# the tests-crate reference structures (tests/src/oracle/) over random
# access streams, reverse reconstruction with budget cuts, and real
# skip-log replays (wide-PC records, over-budget truncation).
cargo test -q -p rsr-integration --test timing_equivalence
# The timing-core equivalence suite, by name: the event-driven cluster
# loop (ROB ring, completion heap, operand wakeup, age-ordered issue and
# branch lists) must stay bit-identical to the ROB-scanning reference
# loop (tests/src/oracle/timing.rs) over random programs, core shapes,
# and windows, with and without on-demand predictor reconstruction.
cargo test -q -p rsr-integration --test timing_core_equivalence
# The trace-equivalence suite, by name: the timing core fed a recorded
# retire trace (what the pipeline's follower and every sweep config read)
# must match the live-CPU run field for field on all nine workloads, and
# fail with the same typed error at the same instruction when a window
# halts or leaves the text segment.
cargo test -q -p rsr-integration --test trace_equivalence
# The nine-workload matrix, by name: pipeline depth {1, 2} and sweep
# replay width {1, 4} must equal the standalone run on every workload.
cargo test -q -p rsr-integration --test workload_matrix
# The warm-equivalence suite, by name: the inlined SMARTS warmer, which
# skips a fetch probe that repeats the previous fetch's I-cache line, must
# match the per-instruction reference warmer (tests/src/oracle/warm.rs) in
# est_ipc, per-cluster CPIs and warm_updates on all nine workloads, and in
# every cache set and the whole predictor on geometries where a next-line
# prefetch demotes or evicts the line just fetched.
cargo test -q -p rsr-integration --test warm_equivalence
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Hard gate: the core engine and its deps must fail typed, not panic.
# clippy.toml exempts test code.
cargo clippy -p rsr-core -- -A warnings -D clippy::unwrap_used -D clippy::expect_used

# Bench-smoke regression guard: recon_ns_per_record is per-record, so the
# smoke run is comparable to the committed full-scale reference. A >25%
# regression fails hard on multi-core hosts; on starved CI boxes (<= 2
# cores) timing is too noisy, so the guard is advisory there. Both files
# may be JSON arrays (depth-1 row first) — compare the first occurrence.
if ./target/release/rsr bench --scale 0.05 --out target/BENCH_sample.smoke.json; then
  smoke_recon=$(grep -m1 '"recon_ns_per_record"' target/BENCH_sample.smoke.json \
    | sed 's/[^0-9.]//g')
  ref_recon=$(grep -m1 '"recon_ns_per_record"' BENCH_sample.json | sed 's/[^0-9.]//g')
  if awk -v s="$smoke_recon" -v r="$ref_recon" 'BEGIN { exit !(s > r * 1.25) }'; then
    echo "ci: recon_ns_per_record regressed: smoke $smoke_recon vs reference $ref_recon (+25% threshold)"
    if [ "$(nproc)" -gt 2 ]; then
      exit 1
    else
      echo "ci: advisory only on $(nproc)-core host (timing too noisy to gate)"
    fi
  else
    echo "ci: recon_ns_per_record ok: smoke $smoke_recon vs reference $ref_recon"
  fi

  # Bit-identity cross-check (hard everywhere — determinism, not timing):
  # the smoke run's sampled IPC and record count are pure functions of the
  # functional core. These pins were produced by the reference
  # one-instruction-at-a-time interpreter at scale 0.05; any drift means
  # the superblock fast path, the semantic predecode, or the TLB layer
  # changed an architectural result. The peak logged bytes are 8 per
  # record of the largest skip region, so that pin moves only with the
  # record layout.
  smoke_ipc=$(grep -m1 '"est_ipc"' target/BENCH_sample.smoke.json | sed 's/[^0-9.]//g')
  smoke_records=$(grep -m1 '"log_records"' target/BENCH_sample.smoke.json | sed 's/[^0-9.]//g')
  smoke_bytes=$(grep -m1 '"log_bytes_peak"' target/BENCH_sample.smoke.json | sed 's/[^0-9.]//g')
  if [ "$smoke_ipc" != "0.033058" ] || [ "$smoke_records" != "730655" ] \
    || [ "$smoke_bytes" != "2947928" ]; then
    echo "ci: functional bit-identity broken: est_ipc $smoke_ipc (want 0.033058)," \
      "log_records $smoke_records (want 730655)," \
      "log_bytes_peak $smoke_bytes (want 2947928)"
    exit 1
  fi
  echo "ci: functional bit-identity ok: est_ipc $smoke_ipc, log_records $smoke_records," \
    "log_bytes_peak $smoke_bytes"

  # Cold-MIPS floor: the rebuilt functional core holds >= 51 MIPS on this
  # smoke load (2.4x the pre-rebuild 21); gate at 30 to leave headroom
  # for host noise while still catching a wholesale fast-path regression
  # (e.g. the record sink falling out of the superblock loop). Timing, so
  # advisory on starved <= 2-core hosts.
  smoke_cold=$(grep -m1 '"cold_mips"' target/BENCH_sample.smoke.json | sed 's/[^0-9.]//g')
  if awk -v c="$smoke_cold" 'BEGIN { exit !(c < 30) }'; then
    echo "ci: cold-phase throughput regressed: $smoke_cold MIPS (floor 30)"
    if [ "$(nproc)" -gt 2 ]; then
      exit 1
    else
      echo "ci: advisory only on $(nproc)-core host (timing too noisy to gate)"
    fi
  else
    echo "ci: cold-phase throughput ok: $smoke_cold MIPS (floor 30)"
  fi

  # PHT-reconstruction guard: like recon_ns_per_record, the per-record
  # cost is scale-free, so the smoke run compares to the full-scale
  # reference. The sealed last-writer verdicts dropped this >3x; a >25%
  # regression means the demand scan stopped hopping them.
  # Timing, so advisory on starved <= 2-core hosts.
  smoke_pht=$(grep -m1 '"recon_pht_ns_per_record"' target/BENCH_sample.smoke.json \
    | sed 's/[^0-9.]//g')
  ref_pht=$(grep -m1 '"recon_pht_ns_per_record"' BENCH_sample.json | sed 's/[^0-9.]//g')
  if awk -v s="$smoke_pht" -v r="$ref_pht" 'BEGIN { exit !(s > r * 1.25) }'; then
    echo "ci: recon_pht_ns_per_record regressed: smoke $smoke_pht vs reference $ref_pht (+25% threshold)"
    if [ "$(nproc)" -gt 2 ]; then
      exit 1
    else
      echo "ci: advisory only on $(nproc)-core host (timing too noisy to gate)"
    fi
  else
    echo "ci: recon_pht_ns_per_record ok: smoke $smoke_pht vs reference $ref_pht"
  fi

  # Hot-MIPS floor: the SoA detailed-window kernels hold well above this
  # on the smoke load; the floor catches a wholesale regression (e.g. the
  # hierarchy kernel falling out of line or a per-predict allocation
  # returning). Timing, so advisory on starved <= 2-core hosts.
  smoke_hot=$(grep -m1 '"hot_mips"' target/BENCH_sample.smoke.json | sed 's/[^0-9.]//g')
  if awk -v h="$smoke_hot" 'BEGIN { exit !(h < 1.5) }'; then
    echo "ci: hot-phase throughput regressed: $smoke_hot MIPS (floor 1.5)"
    if [ "$(nproc)" -gt 2 ]; then
      exit 1
    else
      echo "ci: advisory only on $(nproc)-core host (timing too noisy to gate)"
    fi
  else
    echo "ci: hot-phase throughput ok: $smoke_hot MIPS (floor 1.5)"
  fi
else
  echo "ci: bench emission failed (non-fatal)"
fi

# Sweep-smoke guard: a small sweep row must stay bit-identical to its
# standalone runs (hard everywhere — determinism, not timing) and must
# still amortize — the 4-config smoke sweep has to beat 4 independent
# runs with some margin (wall_ratio < 0.9; the full-scale reference row
# in BENCH_sample.json is not comparable, its ratio scales with its 20
# configs). Timing is advisory on starved <= 2-core hosts.
if ./target/release/rsr bench --scale 0.05 --sweep-smoke \
    --out target/BENCH_sweep.smoke.json; then
  if grep -q '"bit_identical": false' target/BENCH_sweep.smoke.json; then
    echo "ci: sweep smoke lost bit-identity vs standalone runs"
    exit 1
  fi
  smoke_ratio=$(grep -m1 '"wall_ratio"' target/BENCH_sweep.smoke.json | sed 's/[^0-9.]//g')
  if awk -v s="$smoke_ratio" 'BEGIN { exit !(s > 0.9) }'; then
    echo "ci: sweep stopped amortizing: smoke wall_ratio $smoke_ratio (>0.9 vs standalone runs)"
    if [ "$(nproc)" -gt 2 ]; then
      exit 1
    else
      echo "ci: advisory only on $(nproc)-core host (timing too noisy to gate)"
    fi
  else
    echo "ci: sweep amortization ok: smoke wall_ratio $smoke_ratio (bound 0.9)"
  fi
else
  echo "ci: sweep emission failed (non-fatal)"
fi

# Sweep replay regression guard: replay the committed row's 20-config
# grid at smoke scale and gate wall_ratio at +25% over the pinned
# reference. The committed fig5 row (wall_ratio ~0.25) is not directly
# comparable at scale 0.05 (fixed overheads dominate shorter windows),
# so the reference is a pinned smoke-scale measurement of the same grid
# (~0.43 on this code; the pre-refactor replay path measured ~0.74).
# Bit-identity is hard everywhere; timing advisory on <= 2-core hosts.
if ./target/release/rsr bench --scale 0.05 --sweep-configs 20 \
    --out target/BENCH_sweep.grid.json; then
  if grep -q '"bit_identical": false' target/BENCH_sweep.grid.json; then
    echo "ci: 20-config sweep lost bit-identity vs standalone runs"
    exit 1
  fi
  for key in '"replay_threads"' '"index_builds_shared"'; do
    if ! grep -q "$key" target/BENCH_sweep.grid.json; then
      echo "ci: sweep row missing expected key $key"
      exit 1
    fi
  done
  grid_ratio=$(grep -m1 '"wall_ratio"' target/BENCH_sweep.grid.json | sed 's/[^0-9.]//g')
  if awk -v s="$grid_ratio" 'BEGIN { exit !(s > 0.55) }'; then
    echo "ci: sweep replay regressed: 20-config wall_ratio $grid_ratio (bound 0.55 = ~1.25x pinned 0.43)"
    if [ "$(nproc)" -gt 2 ]; then
      exit 1
    else
      echo "ci: advisory only on $(nproc)-core host (timing too noisy to gate)"
    fi
  else
    echo "ci: sweep replay ok: 20-config wall_ratio $grid_ratio (bound 0.55)"
  fi
else
  echo "ci: sweep grid emission failed (non-fatal)"
fi

# Serve smoke: a real daemon process on the loopback, driven through the
# CLI. The second submission must be a cache hit with the same IPC line,
# a flipped byte in the stored entry must be quarantined and recomputed,
# and a drain must bring the daemon down with exit 0.
serve_cache=target/serve-smoke-cache
serve_addr=127.0.0.1:7413
rm -rf "$serve_cache"
./target/release/rsr serve --cache "$serve_cache" --addr "$serve_addr" --scale 0.05 &
serve_pid=$!
for _ in $(seq 1 50); do
  if ./target/release/rsr submit --addr "$serve_addr" --stats >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
submit_job() {
  ./target/release/rsr submit twolf --addr "$serve_addr" \
    --clusters 8 --len 300 -n 100000 --seed 7
}
# The leading field is the job's content address, which names its cache
# entry on disk: a drift orphans every stored result, so it is pinned.
serve_hash=84a3074fa5c085bc
check_hash() {
  local got
  got=$(cut -d' ' -f1 <<<"$2")
  if [ "$got" != "$serve_hash" ]; then
    echo "ci: serve $1 content hash $got (want $serve_hash)"
    exit 1
  fi
}
cold=$(submit_job)
echo "ci: serve cold: $cold"
grep -q "computed:" <<<"$cold"
check_hash cold "$cold"
hit=$(submit_job)
echo "ci: serve hit:  $hit"
grep -q "cache_hit:" <<<"$hit"
check_hash hit "$hit"
strip_run_details() { sed 's/^[0-9a-f]* [a-z_]*: //; s/, [0-9]* attempts*$//' <<<"$1"; }
if [ "$(strip_run_details "$cold")" != "$(strip_run_details "$hit")" ]; then
  echo "ci: serve cache hit drifted from the computed result"
  exit 1
fi
# Truncate the stored entry mid-payload: the daemon must detect the
# corruption, quarantine the file, and recompute the same answer.
entry=$(ls "$serve_cache"/*.rsrc | head -1)
truncate -s 40 "$entry"
recomputed=$(submit_job)
echo "ci: serve heal: $recomputed"
grep -q "recomputed:" <<<"$recomputed"
if [ "$(strip_run_details "$cold")" != "$(strip_run_details "$recomputed")" ]; then
  echo "ci: serve recompute drifted from the original result"
  exit 1
fi
ls "$serve_cache"/*.rsrc.quarantined >/dev/null
./target/release/rsr submit --addr "$serve_addr" --drain
wait "$serve_pid"
echo "ci: serve smoke ok (cold, cache hit, quarantine+recompute, drain)"

echo "ci: all checks passed"
