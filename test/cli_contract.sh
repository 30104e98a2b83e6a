#!/bin/sh
# CLI contract: every surfaced subcommand must
#   - exit 0 on --help,
#   - exit non-zero AND print usage on an unknown flag,
# and the top-level command must reject unknown subcommands the same
# way. cmdliner's conventional error status is 124; we require it
# exactly so accidental uncaught exceptions (status 2/125) fail here.
#
# The bench binary follows the same convention for section selection:
# an unknown --only section is a 124 + usage error, not a silent no-op.
#
# Usage: cli_contract.sh /path/to/snic_cli.exe [/path/to/bench.exe]
set -e

cli="$1"
bench="$2"
[ -x "$cli" ] || { echo "cli_contract: no executable at '$cli'" >&2; exit 2; }

fail() { echo "cli_contract FAIL: $*" >&2; exit 1; }

check_help() {
  # $@ = subcommand path
  "$cli" "$@" --help > /dev/null 2>&1 || fail "'$* --help' exited non-zero"
}

check_bad_flag() {
  set +e
  err=$("$cli" "$@" --definitely-not-a-flag 2>&1 > /dev/null)
  status=$?
  set -e
  [ "$status" -eq 124 ] || fail "'$* --definitely-not-a-flag' exited $status, want 124"
  case "$err" in
    *Usage:*) : ;;
    *) fail "'$* --definitely-not-a-flag' printed no usage line" ;;
  esac
}

for sub in fleet chaos trace datapath oracle vf qos ddos fabric paper; do
  check_help "$sub"
  check_bad_flag "$sub"
done

# --domains / --shards take a positive integer; zero and non-numeric
# values are rejected at parse time (cmdliner conv), so 124 + usage —
# not a crash and not our status-2 validation path.
check_bad_domains() {
  # $1 = subcommand, $2 = flag value
  set +e
  err=$("$cli" "$1" --domains "$2" 2>&1 > /dev/null)
  status=$?
  set -e
  [ "$status" -eq 124 ] || fail "'$1 --domains $2' exited $status, want 124"
  case "$err" in
    *Usage:*) : ;;
    *) fail "'$1 --domains $2' printed no usage line" ;;
  esac
}

for sub in fleet chaos oracle; do
  check_bad_domains "$sub" 0
  check_bad_domains "$sub" abc
  check_bad_domains "$sub" -3
done

check_help
check_bad_flag

# Unknown subcommand: non-zero + usage.
set +e
err=$("$cli" no-such-subcommand 2>&1 > /dev/null)
status=$?
set -e
[ "$status" -eq 124 ] || fail "unknown subcommand exited $status, want 124"
case "$err" in
  *Usage:*) : ;;
  *) fail "unknown subcommand printed no usage line" ;;
esac

# oracle-specific argument validation (our own checks, not cmdliner's):
# missing --mode and out-of-range --slots are status-2 errors.
set +e
"$cli" oracle > /dev/null 2>&1
[ $? -eq 2 ] || fail "'oracle' without --mode should exit 2"
"$cli" oracle --mode snic --slots 99 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'oracle --slots 99' should exit 2"

# vf-specific validation: zero NICs, zero VFs and an out-of-range VF
# count are status-2 errors from our checks, not cmdliner's.
"$cli" vf --nics 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'vf --nics 0' should exit 2"
"$cli" vf --vfs 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'vf --vfs 0' should exit 2"
"$cli" vf --vfs 5000 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'vf --vfs 5000' should exit 2"

# qos-specific validation: a scenario needs an aggressor plus at least
# one victim, and the load/SLO knobs must be positive.
"$cli" qos --tenants 1 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'qos --tenants 1' should exit 2"
"$cli" qos --rounds 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'qos --rounds 0' should exit 2"
"$cli" qos --slo 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'qos --slo 0' should exit 2"

# ddos-specific validation: at least one benign flow, a positive attack
# factor and a sane whitelist size are status-2 errors from our checks.
"$cli" ddos --flows 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'ddos --flows 0' should exit 2"
"$cli" ddos --factor 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'ddos --factor 0' should exit 2"
"$cli" ddos --log2-buckets 99 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'ddos --log2-buckets 99' should exit 2"

# fabric-specific validation: the chain needs three NICs and the
# receive window must fit the RFC 4303-style bitmap.
"$cli" fabric --nics 2 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --nics 2' should exit 2"
"$cli" fabric --window 63 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --window 63' should exit 2"
"$cli" fabric --flows 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "'fabric --flows 0' should exit 2"

# fleet and chaos validate their configs like every other scenario: an
# empty rack, a negative tenant count, no rounds or negative packets
# are status-2 errors, not a vacuous pass (exit 0) or an uncaught
# Invalid_argument (exit 125).
for args in "fleet --nics 0" "fleet --tenants=-1" "chaos --rounds 0" "chaos --packets=-1 --rounds 1"; do
  "$cli" $args > /dev/null 2>&1
  status=$?
  [ "$status" -eq 2 ] || fail "'$args' exited $status, want 2"
done
set -e

# A sharded run writes the merged shard registries to --metrics, fabric
# included.
tmp_metrics=$(mktemp)
"$cli" fabric --shards 2 --metrics "$tmp_metrics" > /dev/null \
  || fail "'fabric --shards 2 --metrics' exited non-zero"
grep -q "^par_shards_total 2$" "$tmp_metrics" || fail "'fabric --shards 2 --metrics' wrote no par_shards_total 2"
rm -f "$tmp_metrics"

# An unknown placement policy is a cmdliner conv error (124 + usage)
# that lists the valid names, driven by Fleet.Policy.of_string.
set +e
err=$("$cli" fleet --policy nope 2>&1 > /dev/null)
status=$?
set -e
[ "$status" -eq 124 ] || fail "'fleet --policy nope' exited $status, want 124"
case "$err" in
  *Usage:*) : ;;
  *) fail "'fleet --policy nope' printed no usage line" ;;
esac
case "$err" in
  *first-fit*tco-aware*) : ;;
  *) fail "'fleet --policy nope' error does not list the valid policies" ;;
esac

# An unknown NF short name anywhere a command takes one is a cmdliner
# conv error (124 + usage) that lists the valid names, driven by
# Nf.Registry.find's descriptive Invalid_argument.
set +e
err=$("$cli" ipc --nf NOPE 2>&1 > /dev/null)
status=$?
set -e
[ "$status" -eq 124 ] || fail "'ipc --nf NOPE' exited $status, want 124"
case "$err" in
  *Usage:*) : ;;
  *) fail "'ipc --nf NOPE' printed no usage line" ;;
esac
# cmdliner re-wraps the message, so match the parts, not the phrase.
case "$err" in
  *"valid short"*SYNP*) : ;;
  *) fail "'ipc --nf NOPE' error does not list the valid NF short names" ;;
esac

# An unknown paper entry id is a cmdliner enum error (124 + usage) that
# lists the registry's ids.
set +e
err=$("$cli" paper no-such-id 2>&1 > /dev/null)
status=$?
set -e
[ "$status" -eq 124 ] || fail "'paper no-such-id' exited $status, want 124"
case "$err" in
  *Usage:*) : ;;
  *) fail "'paper no-such-id' printed no usage line" ;;
esac
case "$err" in
  *table1*fig5b*ablation-translation*) : ;;
  *) fail "'paper no-such-id' error does not list the valid entry ids" ;;
esac

# Flag values outside what the models accept are cmdliner conv errors
# (124 + usage), not an uncaught Invalid_argument (125) from deep in a run.
for args in "dpi --threads 0" "ipc --nfs 0" "ipc --nfs 17" "fig5 --nfs 0" "fig5 --nfs 17" "fig5 --packets 0" \
  "dos --epoch 0" "dos --dead=-1"; do
  set +e
  err=$("$cli" $args 2>&1 > /dev/null)
  status=$?
  set -e
  [ "$status" -eq 124 ] || fail "'$args' exited $status, want 124"
  case "$err" in
    *Usage:*) : ;;
    *) fail "'$args' printed no usage line" ;;
  esac
done

# A relation between flags, or a file the command cannot read or write,
# is a status-2 error named after the command, raised before the run
# prints anything.
tmp_out=$(mktemp -d)
for args in "dos --dead 200" "oracle --replay $tmp_out/missing" \
  "oracle --mode snic --ops 10 --dump $tmp_out/no/dir/t" "fleet --metrics $tmp_out/no/dir/m" \
  "chaos --metrics $tmp_out/no/dir/m" "trace chaos --out $tmp_out/no/dir/t.json"; do
  set +e
  "$cli" $args > "$tmp_out/stdout" 2> "$tmp_out/stderr"
  status=$?
  set -e
  [ "$status" -eq 2 ] || fail "'$args' exited $status, want 2"
  [ ! -s "$tmp_out/stdout" ] || fail "'$args' printed output before failing"
  grep -q "^${args%% *}: " "$tmp_out/stderr" || fail "'$args' error is not prefixed with '${args%% *}: '"
done
rm -rf "$tmp_out"

# bench --only: unknown sections are 124 + usage, known sections are
# listed in the message (read from bench/main.ml's section table).
if [ -n "$bench" ]; then
  [ -x "$bench" ] || fail "no bench executable at '$bench'"
  set +e
  err=$("$bench" --only no-such-section 2>&1 > /dev/null)
  status=$?
  set -e
  [ "$status" -eq 124 ] || fail "'bench --only no-such-section' exited $status, want 124"
  case "$err" in
    *Usage:*) : ;;
    *) fail "'bench --only no-such-section' printed no usage line" ;;
  esac
  case "$err" in
    *qos*) : ;;
    *) fail "'bench --only' usage does not list the qos section" ;;
  esac
  case "$err" in
    *par*) : ;;
    *) fail "'bench --only' usage does not list the par section" ;;
  esac
  case "$err" in
    *ddos*) : ;;
    *) fail "'bench --only' usage does not list the ddos section" ;;
  esac
  case "$err" in
    *fabric*) : ;;
    *) fail "'bench --only' usage does not list the fabric section" ;;
  esac

  # bench --domains follows the same convention: zero or non-numeric
  # values are 124 + usage before any section runs.
  for v in 0 abc; do
    set +e
    err=$("$bench" --only par --domains "$v" 2>&1 > /dev/null)
    status=$?
    set -e
    [ "$status" -eq 124 ] || fail "'bench --domains $v' exited $status, want 124"
    case "$err" in
      *Usage:*) : ;;
      *) fail "'bench --domains $v' printed no usage line" ;;
    esac
  done

  # A malformed --seed or --check baseline, or a --json path that cannot
  # be written, is a typed 124 + usage error, raised before any section
  # runs: not an int_of_string / float_of_string / Not_found /
  # Sys_error exception (status 2).
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  printf '{\n  "datapath.pktio.forwarded": -\n}\n' > "$tmp/bare_minus.json"
  printf '{\n  "datapath.pktio.forwarded: 2000\n' > "$tmp/open_key.json"
  for args in "--seed abc" "--check $tmp/bare_minus.json" "--check $tmp/open_key.json" \
    "--json $tmp/no/dir/x.json"; do
    set +e
    err=$("$bench" --only datapath $args 2>&1 > /dev/null)
    status=$?
    set -e
    [ "$status" -eq 124 ] || fail "'bench $args' exited $status, want 124"
    case "$err" in
      *Usage:*) : ;;
      *) fail "'bench $args' printed no usage line" ;;
    esac
  done

  # Every --only section answers to --check: a baseline key the section
  # never records is a failure (exit 1), the oracle section included.
  printf '{\n  "datapath.pktio.forwarded": 2000.000000\n}\n' > "$tmp/datapath_key.json"
  set +e
  "$bench" --only oracle --fast --check "$tmp/datapath_key.json" > /dev/null 2>&1
  status=$?
  set -e
  [ "$status" -eq 1 ] || fail "'bench --only oracle --check' on a datapath baseline exited $status, want 1"
fi

echo "cli contract holds (fleet chaos trace datapath oracle vf qos ddos fabric paper; paper ids; --domains; --nf; --policy; model ranges; output files; bench --only, --seed, --check, --json)"
