#!/bin/sh
# End-to-end smoke of the shipped daemon and client over real sockets. Each
# leg boots recoil_served on an ephemeral port (--port 0, read back from its
# "recoil_served listening on ADDR:PORT (" banner), drives recoil_client
# against it, then sends SIGTERM: every daemon must drain and exit 0.
#
#   store cycle   --seed-demo writes the demo asset through to a store;
#                 a reboot without --seed-demo cannot encode, so the
#                 mmapped master must serve --verify, --stream and --range.
#                 tools/lint.py checks the scrape against the frozen names.
#   governed      a reboot with a budget below one master plus one response
#                 must unload masters and load them back bit-exact.
#   sharded       4 shards on 2 loops: verify, range, a tenant mix and the
#                 shard/daemon-loop frozen names.
#
# Usage: recoil_served_smoke.sh SERVED CLIENT PYTHON LINT_PY
served="$1"
client="$2"
python="$3"
lint="$4"

work=$(mktemp -d "${TMPDIR:-/tmp}/recoil_served_smoke.XXXXXX") || exit 1
pid=
boots=0
log=
# A daemon left running by a failed leg gets SIGTERM; its timeout wrapper
# kills it if it does not drain.
cleanup() {
    [ -n "$pid" ] && kill -TERM "$pid" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*"
    [ -f "$log" ] && sed 's/^/  daemon: /' "$log"
    exit 1
}

# boot ARGS...: start the daemon and set $port from its banner. A daemon
# lives at most 60 s (then SIGTERM, and SIGKILL 5 s later). Each boot logs
# to its own file, so no banner of an earlier daemon can be read.
boot() {
    boots=$((boots + 1))
    log="$work/daemon$boots.log"
    timeout -k 5 60 "$served" --port 0 "$@" >"$log" 2>&1 &
    pid=$!
    port=
    tries=0
    while [ -z "$port" ]; do
        port=$(sed -n 's/^recoil_served listening on .*:\([0-9][0-9]*\) (.*/\1/p' \
            "$log" 2>/dev/null)
        [ -n "$port" ] && break
        grep -q '^recoil_served: \|^usage:' "$log" 2>/dev/null &&
            fail "recoil_served $* did not start"
        tries=$((tries + 1))
        [ "$tries" -gt 600 ] && fail "recoil_served $* printed no banner"
        sleep 0.05
    done
    echo "booted recoil_served $* on port $port"
}

# drain: SIGTERM the daemon; it must finish its drain and exit 0 (a hung
# drain runs into the timeout and exits 124).
drain() {
    kill -TERM "$pid"
    wait "$pid"
    rc=$?
    pid=
    [ "$rc" -eq 0 ] || fail "recoil_served exited $rc after SIGTERM"
    grep -q '^drained:' "$log" || fail "recoil_served did not drain"
}

# run ARGS...: one recoil_client call against the booted daemon.
run() {
    "$client" --port "$port" "$@" || fail "recoil_client $* exited $?"
}

store="$work/store"

# Store cycle.
boot --store "$store" --seed-demo
run --verify demo
drain

boot --store "$store"
run --verify demo
run --stream demo
run --range 1000:50000 demo
# The client's numeric bounds parse: recoil_served clamps the parallelism
# and answers a range past the asset's end with a typed error (exit 1).
run --parallelism 4294967295 --verify demo
"$client" --port "$port" --range 0:18446744073709551615 demo
[ $? -eq 1 ] || fail "a range past the asset's end did not fail typed"
run --metrics-json "$work/m.json"
drain
"$python" "$lint" --metrics-json "$work/m.json" --daemon-json "$work/m.json" ||
    fail "lint found missing names in the single-server scrape"

# Governed leg: a budget below one demo master (a cached response is
# charged only its structural bytes, so the master is what overflows it).
boot --store "$store" --mem-budget 400K
run --parallelism 4 --verify demo
run --parallelism 16 --verify demo
run --parallelism 4 --verify demo
run --metrics-json "$work/g.json"
drain
unloads=$("$python" -c 'import json, sys
print(json.load(open(sys.argv[1]))["counters"]["governor_unloads_total"])' \
    "$work/g.json") || fail "no governor_unloads_total in the governed scrape"
[ "$unloads" -gt 0 ] || fail "the governed leg recorded no unload"
echo "governed leg: $unloads unload(s)"

# Sharded leg.
boot --store "$work/shard_store" --seed-demo --shards 4 --loops 2 \
    --mem-budget 64M
run --verify demo
run --range 1000:50000 demo
run --bench-tenants 500
run --metrics-json "$work/s.json"
drain
"$python" "$lint" --shard-json "$work/s.json" ||
    fail "lint found missing names in the sharded scrape"

echo "recoil_served smoke: every leg passed and every daemon drained"
