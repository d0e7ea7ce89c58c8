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
#   fd limit      a daemon booted under a low `ulimit -n` is held past its
#                 fd limit: it must refuse the overflow with EOF, not spin
#                 on its readable listener, and then serve again.
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
# lives at most 60 s (then SIGTERM, and SIGKILL 5 s later); $pid is its
# timeout wrapper, whose one child is recoil_served. A non-empty $nofile
# caps the daemon's open files. Each boot logs to its own file, so no
# banner of an earlier daemon can be read.
boot() {
    boots=$((boots + 1))
    log="$work/daemon$boots.log"
    (
        [ -z "$nofile" ] || ulimit -n "$nofile" || exit 2
        exec timeout -k 5 60 "$served" --port 0 "$@"
    ) >"$log" 2>&1 &
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

# secs T: seconds from $t0 to the nanosecond stamp T ("-" without one).
secs() {
    [ -n "$1" ] || { echo -; return; }
    ms=$((($1 - t0) / 1000000))
    printf '%d.%03d' $((ms / 1000)) $((ms % 1000))
}

# drain: SIGTERM the daemon; it must finish its drain and exit 0 (a hung
# drain runs into the timeout and exits 124). Prints the seconds from
# SIGTERM to the daemon's `drained:` line (polled every 10 ms) and to its
# exit, so a daemon its wrapper kills shows which of the two was slow.
drain() {
    t0=$(date +%s%N)
    kill -TERM "$pid"
    (
        until grep -q '^drained:' "$log"; do sleep 0.01; done
        date +%s%N >"$log.drained"
    ) &
    watch=$!
    wait "$pid"
    rc=$?
    t_exit=$(date +%s%N)
    pid=
    grep -q '^drained:' "$log" || kill "$watch" 2>/dev/null
    wait "$watch"
    t_drained=$(cat "$log.drained" 2>/dev/null)
    # A line the poll saw only after the exit was there by the exit.
    [ -n "$t_drained" ] && [ "$t_drained" -gt "$t_exit" ] && t_drained=$t_exit
    echo "drain: drained: line after $(secs "$t_drained") s, exit after $(secs "$t_exit") s"
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

# Fd-limit leg: 96 connections against a daemon allowed 64 open files. The
# listener stays readable while accept4 fails with EMFILE, so the loop must
# accept and close the overflow itself (counted as refused) and then idle.
nofile=64
boot --seed-demo
nofile=
"$python" - "$port" "$pid" <<'PY' || fail "the fd-limit leg failed"
import os, socket, sys, time

port, wrapper = int(sys.argv[1]), int(sys.argv[2])

def stat(pid):  # the fields after "(comm)" in /proc/PID/stat
    with open("/proc/%d/stat" % pid) as f:
        return f.read().rsplit(")", 1)[1].split()

def ppid(pid):
    try:
        return int(stat(pid)[1])
    except (OSError, IndexError, ValueError):
        return None

(daemon,) = [int(d) for d in os.listdir("/proc")
             if d.isdigit() and ppid(int(d)) == wrapper]

def cpu_s():
    f = stat(daemon)
    return (int(f[11]) + int(f[12])) / os.sysconf("SC_CLK_TCK")

def fds():
    return len(os.listdir("/proc/%d/fd" % daemon))

idle_fds = fds()
held = [socket.create_connection(("127.0.0.1", port)) for _ in range(96)]
time.sleep(0.5)  # the loop accepts up to its limit and refuses the rest
before = cpu_s()
time.sleep(1.0)
spent = cpu_s() - before
eof = 0
for s in held:
    try:
        eof += s.recv(1, socket.MSG_DONTWAIT) == b""
    except BlockingIOError:
        pass  # accepted: open and waiting for a request
print("fd-limit leg: %.2f s of daemon CPU in 1 s, %d of %d held "
      "connections read EOF" % (spent, eof, len(held)))
for s in held:
    s.close()
deadline = time.monotonic() + 10
while fds() > idle_fds and time.monotonic() < deadline:
    time.sleep(0.02)  # the loop closes its side of each connection
if spent > 0.2:
    sys.exit("the daemon spun at its fd limit")
if eof == 0:
    sys.exit("no connection past the fd limit was refused with EOF")
if fds() > idle_fds:
    sys.exit("the daemon kept connections the peer closed")
PY
run --verify demo
run --metrics-json "$work/f.json"
drain
refused=$("$python" -c 'import json, sys
print(json.load(open(sys.argv[1]))["counters"]["daemon_refused_total"])' \
    "$work/f.json") || fail "no daemon_refused_total in the fd-limit scrape"
[ "$refused" -gt 0 ] || fail "the fd-limit leg refused no connection"
echo "fd-limit leg: $refused refused"

echo "recoil_served smoke: every leg passed and every daemon drained"
