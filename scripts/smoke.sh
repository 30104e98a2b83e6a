#!/bin/sh
# CI smoke checks, one section per matrix job:
#
#   sh scripts/smoke.sh fleet|chaos|bench|oracle|vf|qos|par|ddos|fabric|paper
#
# A scenario subcommand exits 1 when its report fails one of its own
# gates, so running it on the pinned seed is the gate. On top of that a
# section greps the stable `invariants:` lines, diffs seeded replays,
# and runs `bench --check` against the committed baseline. Artifacts
# (bench JSON, traces, counterexamples) land in smoke-out/.

set -eu
cd "$(dirname "$0")/.."

case "${1:-}" in
  fleet | chaos | bench | oracle | vf | qos | par | ddos | fabric | paper) section=$1 ;;
  *)
    echo "usage: sh scripts/smoke.sh fleet|chaos|bench|oracle|vf|qos|par|ddos|fabric|paper" >&2
    exit 2
    ;;
esac

dune build ./bin/snic_cli.exe ./bench/main.exe
cli=./_build/default/bin/snic_cli.exe
art=smoke-out
mkdir -p "$art"

# The section's bench regression gate: pinned-seed keys against the
# committed baseline (checksums and digests exactly, the rest within
# 25%), plus every gate the section records. Exit 1 on violation.
bench_check() {
  ./_build/default/bench/main.exe --only "$1" --seed 42 \
    --json "$art/BENCH_$1.json" --check "bench/BENCH_$1.baseline.json"
}

case "$section" in
fleet)
  # The acceptance rack on the pinned seed, gated by
  # Fleet.Scenario.gates, and its byte-identical seeded replay.
  "$cli" fleet --nics 6 --tenants 18 --packets 100 --seed 42 > "$art/fleet_a.txt"
  cat "$art/fleet_a.txt"
  "$cli" fleet --nics 6 --tenants 18 --packets 100 --seed 42 > "$art/fleet_b.txt"
  diff "$art/fleet_a.txt" "$art/fleet_b.txt"
  echo "seed 42 replays byte-for-byte"
  ;;

chaos)
  # The fault storm must never let an unattested function run or a
  # teardown scrub go unverified, on any seed, and every recoverable
  # tenant must end the run re-placed and re-attested (unplaced=0).
  for seed in 42 1337 20240; do
    echo "=== chaos seed $seed ==="
    out=$("$cli" chaos --seed "$seed")
    echo "$out"
    echo "$out" | grep -q "unattested_running=0 scrub_failures=0" \
      || { echo "::error::invariant violated at seed $seed"; exit 1; }
    echo "$out" | grep -q " unplaced=0 " \
      || { echo "::error::stranded tenants at seed $seed"; exit 1; }
  done

  # Same seed, byte-identical injection log and telemetry.
  "$cli" chaos --seed 42 --log > "$art/run_a.txt"
  "$cli" chaos --seed 42 --log > "$art/run_b.txt"
  diff "$art/run_a.txt" "$art/run_b.txt"
  echo "seed 42 replays byte-for-byte"

  # The trace exporter: valid Chrome JSON (jq parses it), span counts
  # that the CLI cross-checks against the metric registry (it exits 1
  # on mismatch), and byte-identical output for the same seed.
  "$cli" trace chaos --seed 42 --out "$art/trace_a.json" --metrics "$art/metrics_a.prom"
  "$cli" trace chaos --seed 42 --out "$art/trace_b.json"
  jq -e '.traceEvents | length > 0' "$art/trace_a.json" > /dev/null
  jq -e '(.traceEvents | map(select(.ph == "B")) | length) == (.traceEvents | map(select(.ph == "E")) | length)' \
    "$art/trace_a.json" > /dev/null
  diff "$art/trace_a.json" "$art/trace_b.json"
  grep -q "^snic_pktio_rx_total " "$art/metrics_a.prom"
  grep -q "^fleet_recovery_ms_count " "$art/metrics_a.prom"
  echo "trace is valid, balanced, and replays byte-for-byte"
  ;;

bench)
  bench_check datapath
  # The allocator's page-at-a-time descriptor walk on the real
  # workload: fwd_burst at its fixed size (no --seconds), so the
  # Physmem page-resolution count is exact. The per-field walk cost
  # ~1074 resolutions per frame; the gate is 24. The output gate
  # (`correct`) must hold too.
  sh bench/e2e/run.sh --workload fwd_burst --json "$art/e2e_fwd_burst.json"
  jq -e '.workloads[0] | .correct and (.counts.physmem_resolutions / .counts.offered <= 24)' \
    "$art/e2e_fwd_burst.json"
  # The keyed HMAC on the real workload: syn_flood at its fixed size,
  # traced, so minor words per frame are exact. Re-padding the key and
  # printf-building every SYN cookie cost ~1354 words per frame; the
  # gate is 1000.
  sh bench/e2e/run.sh --workload syn_flood --trace 1 --json "$art/e2e_syn_flood.json"
  jq -e '.workloads[0] | .correct and (.metrics["gc.minor_words_per_frame"].value <= 1000)' \
    "$art/e2e_syn_flood.json"
  ;;

oracle)
  # 100k-op pinned-seed campaign per mode. Every commodity mode must
  # reproduce its expected violation classes (absence matters too:
  # accel-hijack must NOT fire where TrustZone / missing xkphys blocks
  # it), snic must be clean, and model-mismatch — the differential
  # oracle disagreeing with the machine — fails in ANY mode. On a failed
  # expectation the minimal shrunk counterexample trace is saved.
  mkdir -p "$art/oracle"
  fail_mode() {
    mode=$1
    shift
    echo "::error::oracle-smoke [$mode]: $*"
    "$cli" oracle --mode "$mode" --ops 100000 --seed 42 --shrink \
      --dump "$art/oracle/$mode-counterexample.trace" \
      > "$art/oracle/$mode-shrink.txt" 2>&1 || true
    exit 1
  }
  expect_classes() {
    mode=$1
    shift
    out=$("$cli" oracle --mode "$mode" --ops 100000 --seed 42 --expect violations) \
      || fail_mode "$mode" "expected violations, run reported none"
    echo "$out"
    echo "$out" | grep -q "model-mismatch" \
      && fail_mode "$mode" "reference model disagrees with the machine"
    for cls in "$@"; do
      echo "$out" | grep -q "  $cls " \
        || fail_mode "$mode" "expected class $cls did not fire"
    done
    for cls in $ABSENT; do
      echo "$out" | grep -q "  $cls " \
        && fail_mode "$mode" "class $cls fired but the mode should block it"
    done
    true
  }
  COMMON="cross-tenant-read cross-tenant-write os-read-nf scrub-residue stale-translation"
  ABSENT=""
  for mode in se-s se-um-xk agilio; do
    echo "=== $mode ==="
    expect_classes "$mode" $COMMON accel-hijack
  done
  ABSENT="accel-hijack"
  for mode in se-um bluefield; do
    echo "=== $mode ==="
    expect_classes "$mode" $COMMON
  done
  echo "=== snic ==="
  "$cli" oracle --mode snic --ops 100000 --seed 42 --expect clean \
    || fail_mode snic "S-NIC campaign reported violations"

  # The generated alphabet carries the VF ops (attach/detach/doorbell/
  # ring-snoop) and Qos_admit credit ops, with CKF/SYNP in the NF pool:
  # the S-NIC campaign must stay clean, with no model-mismatch.
  "$cli" oracle --mode snic --ops 20000 --seed 42 --expect clean

  # Same seed, byte-identical report — the property --replay relies on.
  "$cli" oracle --mode se-s --ops 100000 --seed 42 > "$art/ora_a.txt"
  "$cli" oracle --mode se-s --ops 100000 --seed 42 > "$art/ora_b.txt"
  diff "$art/ora_a.txt" "$art/ora_b.txt"
  echo "seed 42 replays byte-for-byte"

  # Shrink + trace round-trip: the dumped minimal trace must replay to
  # the same violation it was shrunk for.
  "$cli" oracle --mode se-s --ops 2000 --seed 42 --shrink --dump "$art/shrunk.trace"
  "$cli" oracle --replay "$art/shrunk.trace" --expect violations
  echo "shrunk trace replays to a violation"
  ;;

vf)
  # 256 VFs per NIC on the pinned seed, gated by Vf.Scenario.gates.
  "$cli" vf --nics 4 --vfs 256 --cycles 32 --seed 42 --shares

  # Same seed, byte-identical schedule.
  "$cli" vf --nics 4 --vfs 256 --cycles 32 --seed 42 > "$art/vf_a.txt"
  "$cli" vf --nics 4 --vfs 256 --cycles 32 --seed 42 > "$art/vf_b.txt"
  diff "$art/vf_a.txt" "$art/vf_b.txt"
  echo "seed 42 replays byte-for-byte"
  bench_check vf
  ;;

qos)
  # The noisy-neighbor arc on the pinned seed, gated by
  # Fleet.Qos_scenario.gates. The zero-slack variant proves donation alone
  # prevents starvation.
  "$cli" qos --seed 42
  "$cli" qos --seed 42 --starve

  # Same seed, byte-identical report: the scenario has no wall-clock
  # output, so the whole summary must replay exactly.
  "$cli" qos --seed 42 > "$art/qos_a.txt"
  "$cli" qos --seed 42 > "$art/qos_b.txt"
  diff "$art/qos_a.txt" "$art/qos_b.txt"
  echo "seed 42 replays byte-for-byte"
  bench_check qos
  ;;

par)
  # Cross-domain determinism: a workload fanned over 2 domains must
  # print byte-for-byte what the single-domain run prints — the oracle
  # replayed via --domains 1 --shards 2, and a sharded chaos storm. The
  # merged metrics snapshots must agree too, except the par_domains
  # gauge, which records the requested fan-out itself.
  "$cli" oracle --mode se-s --ops 20000 --seed 42 --domains 2 > "$art/par_a.txt"
  "$cli" oracle --mode se-s --ops 20000 --seed 42 --domains 1 --shards 2 > "$art/par_b.txt"
  diff "$art/par_a.txt" "$art/par_b.txt"
  "$cli" chaos --seed 42 --nics 4 --tenants 8 --rounds 2 --packets 100 \
    --shards 2 --domains 2 --metrics "$art/m2.prom" > "$art/chaos_a.txt"
  "$cli" chaos --seed 42 --nics 4 --tenants 8 --rounds 2 --packets 100 \
    --shards 2 --domains 1 --metrics "$art/m1.prom" > "$art/chaos_b.txt"
  diff "$art/chaos_a.txt" "$art/chaos_b.txt"
  grep -v '^par_domains ' "$art/m2.prom" > "$art/m2.txt"
  grep -v '^par_domains ' "$art/m1.prom" > "$art/m1.txt"
  diff "$art/m2.txt" "$art/m1.txt"
  echo "2-domain runs replay byte-for-byte on 1 domain"
  bench_check par
  ;;

ddos)
  # The SYN flood on the pinned seed, gated by Fleet.Ddos_scenario.gates.
  # The invariants line is the stable greppable summary tail.
  out=$("$cli" ddos --seed 42)
  echo "$out"
  echo "$out" | grep -q "invariants: snic_goodput=1.0000 snic_mem_flat=1 snic_tampered=0 snic_key_stolen=0" \
    || { echo "::error::ddos invariants line missing or degraded"; exit 1; }

  "$cli" ddos --seed 42 > "$art/ddos_a.txt"
  "$cli" ddos --seed 42 > "$art/ddos_b.txt"
  diff "$art/ddos_a.txt" "$art/ddos_b.txt"
  echo "seed 42 replays byte-for-byte"
  bench_check ddos
  ;;

fabric)
  # The cross-NIC chain on the pinned seed, gated by
  # Fleet.Fabric_scenario.gates (mid-run NIC kill included).
  out=$("$cli" fabric --seed 42)
  echo "$out"
  echo "$out" | grep -q "invariants: benign_mac_fail=0 replay_rejects=24/24 stale_rejects=24/24 tamper_rejects=16/16 goodput_ratio=1.0000 failover=1 fail_closed=1" \
    || { echo "::error::fabric invariants line missing or degraded"; exit 1; }

  # Same seed, byte-identical report at 1 and 4 domains: the rack boots
  # fan out across domains but the scenario must not notice.
  "$cli" fabric --seed 42 --domains 1 > "$art/fabric_a.txt"
  "$cli" fabric --seed 42 --domains 4 > "$art/fabric_b.txt"
  diff "$art/fabric_a.txt" "$art/fabric_b.txt"
  echo "seed 42 replays byte-for-byte across domain counts"

  # Attested channels add fabric surface, not isolation holes: the S-NIC
  # campaign stays clean with chanopen/chansend/chanreplay in the
  # alphabet.
  "$cli" oracle --mode snic --ops 20000 --seed 42 --fabric-ops --expect clean
  bench_check fabric
  ;;

paper)
  # Every table and figure of the paper at paper scale; the CLI exits 1
  # on any failed claim. EXPERIMENTS.md embeds each entry's CSV after a
  # `<!-- repro:ID -->` line, in registry order, so the blocks put
  # together must be this output byte for byte (dune runtest checks the
  # entries --fast does not shrink; this covers Figure 5 and the rest).
  "$cli" paper > "$art/paper.csv"
  awk '/^<!-- repro:/ { want = 1; next }
       want && /^```csv$/ { inside = 1; want = 0; next }
       inside && /^```$/ { inside = 0; next }
       inside' EXPERIMENTS.md > "$art/experiments.csv"
  diff "$art/experiments.csv" "$art/paper.csv" \
    || { echo "::error::EXPERIMENTS.md differs from snic_cli paper"; exit 1; }
  echo "every claim holds; EXPERIMENTS.md matches the registry"
  ;;
esac
