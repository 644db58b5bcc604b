#!/usr/bin/env bash
# CI walls, one function each. Run any of them locally from any directory:
#
#   bash ci/walls.sh list        # the walls the CI matrix runs, one per line
#   bash ci/walls.sh build       # release build, tier-1, workspace tests, prebuilt wall binaries
#   bash ci/walls.sh lint        # rustfmt, clippy, rustdoc links, matrix == `list`
#   bash ci/walls.sh <wall>      # one wall, e.g. `bash ci/walls.sh chaos`
#
# Each wall writes its captured outputs (`*.out`, `events.log`) to the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

WALLS="determinism perfbench observability tenant chaos net crash-recovery lifecycle"

# `require_metrics <prefix> <file>...` checks that the files expose every
# name in .github/required-metrics.txt that `prefix` owns. A name belongs to
# the one of `ucad_life_`, `ucad_net_` and `ucad_tenant_` that it starts
# with, else to `ucad_`, so each name is checked by exactly one wall: the
# one whose examples expose that prefix.
require_metrics() {
  local prefix=$1 metric owner p missing=0
  shift
  while read -r metric; do
    [ -z "$metric" ] && continue
    owner=ucad_
    for p in ucad_life_ ucad_net_ ucad_tenant_; do
      case "$metric" in "$p"*) owner=$p ;; esac
    done
    [ "$owner" = "$prefix" ] || continue
    if ! grep -q "^${metric}[{ _]" "$@"; then
      echo "MISSING metric: ${metric}"
      missing=1
    fi
  done < .github/required-metrics.txt
  return $missing
}

wall_lint() {
  cargo fmt --all --check
  cargo clippy --workspace --all-targets -- -D warnings
  # Doc links must resolve (a deleted API leaves none dangling). The
  # vendored stand-in crates are not ours to document.
  RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive --exclude serde_json
  # The workflow's wall matrix must name exactly the walls above.
  python3 - "$WALLS" <<'EOF'
import sys, yaml
with open(".github/workflows/ci.yml") as f:
    matrix = yaml.safe_load(f)["jobs"]["walls"]["strategy"]["matrix"]["wall"]
walls = sys.argv[1].split()
assert matrix == walls, f"ci.yml matrix {matrix} != ci/walls.sh walls {walls}"
EOF
}

wall_build() {
  cargo build --release --workspace
  # Tier-1 (root package), then every workspace crate.
  cargo test -q --no-fail-fast
  cargo test -q --workspace --no-fail-fast
  # Every release test binary and example the walls run, and the benchmark.
  cargo test --release --workspace --no-run
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
  cargo test --release --offline --manifest-path perfbench/Cargo.toml --no-run
}

wall_determinism() {
  cargo test --release --test serve_determinism -- --nocapture
  cargo test --release --test serve_cache
  cargo test --release --test derived_weights
  cargo test --release --test grad_wall
  cargo test --release --test golden_scenario1
  cargo test --release --test parallel_props
  cargo test --release --test abstraction_oracle
  for t in 1 4; do
    UCAD_THREADS=$t cargo test --release --test trace_determinism
  done
}

wall_perfbench() {
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
  # Gate: train-offline verdicts agree across batch passes, open loop and restart
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload train-offline --seed 1 --seconds 3 --trace 0 > perfbench.out
  tail -n 1 perfbench.out
  tail -n 1 perfbench.out | grep -q '"correct": true'
}

wall_observability() {
  cargo test --release --test golden_obs
  cargo test --release --test obs_flight
  # The serving example exposes every required metric of the core stack
  UCAD_OBS=1 cargo run --release --example serving > serving.out 2> events.log
  grep -c '"event":"span"' events.log
  require_metrics ucad_ serving.out
}

wall_tenant() {
  for t in 1 4; do
    UCAD_THREADS=$t cargo test --release --test tenant_isolation
  done
  cargo test --release --test tenant_registry
  cargo test -p ucad-tenant --release
  # LRU-churn soak (4 tenants, resident budget 2)
  UCAD_TENANT_BUDGET=2 cargo run --release --example multi_tenant > tenant.out
  grep -q '^ucad_tenant_evictions_total [1-9]' tenant.out
  grep -q '^ucad_tenant_cold_loads_total [1-9]' tenant.out
  grep -q '^ucad_tenant_activations_total [1-9]' tenant.out
  grep -q '^ucad_tenant_resident 2' tenant.out
  grep -q '^ucad_tenant_label_clamped_total 0' tenant.out
  grep -q '^ucad_serve_records_shed_total 0' tenant.out
  grep -Eq '^ucad_serve_records_total\{tenant="commenting-1"\} [1-9]' tenant.out
  grep -Eq '^ucad_life_records_total\{tenant="syslog-3"\} [1-9]' tenant.out
  require_metrics ucad_tenant_ tenant.out
}

wall_chaos() {
  for t in 1 4; do
    UCAD_THREADS=$t cargo test --release --test chaos_serve
  done
  cargo test --release --test lifecycle_swap swap_during_shard_restart
  for t in 1 4; do
    UCAD_THREADS=$t cargo test --release --test tenant_supervision
  done
  # Fault-armed tenant soak (pool worker panic heals, per-tenant alerts unchanged)
  UCAD_TENANT_BUDGET=2 cargo run --release --example multi_tenant > tenant_clean.out
  UCAD_FAULTS="panic=10" cargo run --release --example multi_tenant > tenant_soak.out
  grep -q '^ucad_serve_worker_restarts_total [1-9]' tenant_soak.out
  grep -q '^ucad_serve_records_shed_total 0' tenant_soak.out
  diff <(grep '^tenant ' tenant_clean.out) <(grep '^tenant ' tenant_soak.out)
  # Transient tenant fs failures (profile and checkpoint I/O retried, per-tenant alerts unchanged)
  UCAD_TENANT_BUDGET=2 UCAD_FAULTS="fs_fail=2" \
    cargo run --release --example multi_tenant > tenant_fs.out
  grep -q '^faults fired: 2 fs I/O failures' tenant_fs.out
  diff <(grep '^tenant ' tenant_clean.out) <(grep '^tenant ' tenant_fs.out)
  # Fault-armed serving soak (worker panic + scoring stall, survives and reconciles)
  UCAD_FAULTS="panic=10;stall_us=200;stall_limit=50" \
    cargo run --release --example serving > soak.out
  grep -q '^worker restarts: [1-9]' soak.out
  grep -q '^ucad_serve_worker_restarts_total [1-9]' soak.out
  grep -q '^ucad_serve_records_shed_total 0' soak.out
  # Shed-policy soak (forced saturation, exact accounting)
  UCAD_SERVE_POLICY=shed UCAD_FAULTS="saturate=10..25" \
    cargo run --release --example serving > shed.out
  grep -q '^overload policy: ShedNewest' shed.out
  grep -q '15 shed' shed.out
  grep -q '^ucad_serve_records_shed_total 15' shed.out
  # Degrade-policy soak (n-gram fallback keeps alerting)
  UCAD_SERVE_POLICY=degrade UCAD_FAULTS="saturate=0..100000" \
    cargo run --release --example serving > degrade.out
  grep -q '^overload policy: Degrade' degrade.out
  grep -q '0 accepted' degrade.out
  grep -q '^ucad_serve_records_degraded_total [1-9]' degrade.out
}

wall_net() {
  cargo test --release --test net_props
  # Live daemon and fault-armed transport walls (torn acks, resets, blackholes)
  cargo test -p ucad-net --release
  # Cross-process byte-identity, kill-and-failover and suffix-replay walls
  # (1-3 daemon processes x cache on/off)
  cargo test --release --test net_cluster
  # Router soak (2 daemon processes, merged metrics, reference diff)
  cargo run --release --example net_cluster > cluster.out
  grep -q 'matches the in-process reference' cluster.out
  # The serving example is transport-agnostic (same alerts over TCP)
  cargo run --release --example serving > inproc.out
  UCAD_SERVE_NET=1 cargo run --release --example serving > tcp.out
  grep -q 'serving over TCP via ucad-net daemon' tcp.out
  diff <(grep '\[ALARM\]' inproc.out) <(grep '\[ALARM\]' tcp.out)
  # Chaos soak (resets + torn acks + blackhole + daemon kill/respawn)
  cargo run --release --example net_failover > chaos.out
  grep -q 'byte-identical through kill -9 + durable failover' chaos.out
  grep -q 'accepted + shed + degraded == submitted' chaos.out
  for metric in ucad_net_retries_total ucad_net_reconnects_total \
                ucad_net_timeouts_total ucad_net_resubmitted_total \
                ucad_net_idle_reaped_total; do
    grep -q "^${metric} [1-9]" chaos.out || { echo "MISSING/ZERO metric: ${metric}"; exit 1; }
  done
  # The router exposes the daemon-side names, the failover client the rest.
  require_metrics ucad_net_ cluster.out chaos.out
}

wall_crash_recovery() {
  cargo test --release --test wal_props
  for t in 1 4; do
    UCAD_THREADS=$t cargo test --release --test crash_recovery
  done
  # Fault-armed crash soak (shifting kill points, byte-identical drain)
  cargo run --release --example crash_recovery > crash.out
  grep -q '^ucad_serve_recoveries_total 1' crash.out
  grep -Eq '^crashed generations: [1-9]' crash.out
  grep -q 'matches the crash-free run' crash.out
}

wall_lifecycle() {
  cargo test --release --test checkpoint_props
  for t in 1 4; do
    UCAD_THREADS=$t cargo test --release --test lifecycle_drift
  done
  for t in 1 2 4; do
    UCAD_THREADS=$t cargo test --release --test lifecycle_swap
  done
  # Seeded drift-injection soak (lifecycle example)
  UCAD_OBS=1 cargo run --release --example lifecycle > lifecycle.out 2> events.log
  grep -q '"event":"life.checkpoint"' events.log
  grep -q '"event":"life.drift_alarm"' events.log
  grep -q '"event":"life.promotion"' events.log
  grep -q '"event":"serve.model_swap"' events.log
  grep -q 'epoch 1' lifecycle.out
  require_metrics ucad_life_ lifecycle.out
}

case "${1:-}" in
  list) printf '%s\n' $WALLS ;;
  *)
    if [ $# -ne 1 ] || ! declare -F "wall_${1//-/_}" > /dev/null; then
      echo "usage: bash ci/walls.sh list | lint | build | <wall>" >&2
      echo "walls: $WALLS" >&2
      exit 2
    fi
    "wall_${1//-/_}"
    ;;
esac
