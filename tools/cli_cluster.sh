#!/bin/sh
# Smoke test of the real daemon binaries.  First, every bad address,
# id, rate, remote fallback, source-count or partition-count flag, and
# a missing CSV file, must be a usage error (exit 124).
# Then two `secmed source` daemons and a `secmed serve` mediator on
# ephemeral localhost ports (addressed as ":PORT", the empty-host form),
# a verified loadgen fleet that must exit 0, then an authenticated
# `secmed drain` of the mediator and of each source, after which every
# daemon must exit 0.  Exits nonzero on the first failure; a trap kills
# whatever daemon is still running.  Run from the repository root:
#
#   sh tools/cli_cluster.sh
set -eu

dune build bin/secmed.exe
exe=_build/default/bin/secmed.exe
spec="--rows 16 --distinct 8 --overlap 4"
dir=$(mktemp -d)
pids=""

cleanup() {
  for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

# The port a daemon printed in its "listening on HOST:PORT" line.
port_of() {
  i=0
  while [ "$i" -lt 100 ]; do
    line=$(grep -m1 'listening on' "$1" 2>/dev/null || true)
    if [ -n "$line" ]; then
      echo "$line" | sed 's/.*listening on [^ ]*:\([0-9]*\) .*/\1/'
      return 0
    fi
    sleep 0.1
    i=$((i + 1))
  done
  echo "cli cluster: no listening line in $1" >&2
  cat "$1" >&2
  return 1
}

# Drain the daemon at PORT and wait for PID; it must exit 0.
drain() {
  name=$1 port=$2 pid=$3
  # shellcheck disable=SC2086
  "$exe" drain "127.0.0.1:$port" $spec
  status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "cli cluster: $name exited $status after its drain" >&2
    cat "$dir/$name.log" >&2
    exit 1
  fi
}

# A flag that wrongly parsed would start a daemon, so each case runs
# under a KILL timeout (exit 137, never 124).
usage_error() {
  status=0
  timeout -s KILL 30 "$exe" "$@" > "$dir/usage.log" 2>&1 || status=$?
  if [ "$status" -ne 124 ]; then
    echo "cli cluster: 'secmed $*' exited $status, not 124 (usage error)" >&2
    cat "$dir/usage.log" >&2
    exit 1
  fi
}
usage_error serve --port 0 --source 1=nohost --source 2=127.0.0.1:7002
usage_error serve --port 0 --source 1=127.0.0.1:7001
usage_error serve --port 0 --source "1=127.0.0.1:7001;127.0.0.1:7011" --source 2=:7002
usage_error source --id 3 --port 0
usage_error run --connect localhost:99999
usage_error stats localhost:notaport
usage_error ping nohostport
usage_error drain :0
usage_error run --connect :1 --fallback das
usage_error loadgen --connect :1 --rate=0
usage_error loadgen --connect :1 --fallback das
usage_error chain --sources 1
usage_error select --partitions 0
usage_error query "$dir/missing-left.csv" "$dir/missing-right.csv" --left-types int --right-types int

for id in 1 2; do
  # shellcheck disable=SC2086
  "$exe" source --id "$id" --port 0 $spec > "$dir/source$id.log" 2>&1 &
  pids="$pids $!"
done
set -- $pids
source1=$1 source2=$2
port1=$(port_of "$dir/source1.log")
port2=$(port_of "$dir/source2.log")

# shellcheck disable=SC2086
"$exe" serve --port 0 --source "1=:$port1" --source "2=127.0.0.1:$port2" \
  --max-sessions 8 $spec > "$dir/serve.log" 2>&1 &
serve=$!
pids="$pids $serve"
port=$(port_of "$dir/serve.log")

# shellcheck disable=SC2086
"$exe" loadgen --connect ":$port" --workers 4 --sessions 2 \
  --mix das=2,commutative=1,pm=1 --verify $spec

drain serve "$port" "$serve"
drain source1 "$port1" "$source1"
drain source2 "$port2" "$source2"
echo "cli cluster: loadgen verified; serve and both sources drained with exit 0"
