#!/bin/sh
# NF registration gate: every lib/nf module that exports a packet
# function ([val nf :] in its .mli) must be registered in
# lib/nf/registry.ml as [<Module>.nf], so the CLI, the fleet and the
# benches can reach it by short name. An NF that only its own tests can
# build is dead weight.
#
# Usage: check_nf_registry.sh DIR   (DIR holds the NF .mli files and registry.ml)
set -e

dir="$1"
[ -f "$dir/registry.ml" ] || { echo "check_nf_registry: no registry.ml in '$dir'" >&2; exit 2; }

status=0
count=0
for f in "$dir"/*.mli; do
  grep -q "^val nf :" "$f" || continue
  count=$((count + 1))
  base=$(basename "$f" .mli)
  # Module name: capitalize the first letter (syn_proxy.mli -> Syn_proxy).
  first=$(printf %s "$base" | cut -c1 | tr '[:lower:]' '[:upper:]')
  module="$first$(printf %s "$base" | cut -c2-)"
  if ! grep -Eq "(^|[^A-Za-z0-9_.])$module\.nf([^A-Za-z0-9_']|\$)" "$dir/registry.ml"; then
    echo "check_nf_registry FAIL: $base.mli exports 'val nf' but registry.ml never names $module.nf" >&2
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "all $count NF modules are registered"
exit "$status"
