#!/bin/sh
# recoil_served and recoil_client must refuse a malformed numeric flag with
# their usage text and exit 2: the daemon before it seeds or binds
# anything, the client before it connects. Every case runs under a
# timeout: a flag that is wrongly accepted boots the daemon, which then
# serves until killed (exit 124), or sends the client into its 10 s
# connect retry against a port nobody listens on (exit 1).
#
# Usage: recoil_served_flags.sh PATH/TO/recoil_served PATH/TO/recoil_client
served="$1"
client="$2"
status=0

expect() {
    want="$1"
    shift
    timeout 10 "$served" --seed-demo "$@" >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "FAIL: recoil_served --seed-demo $* exited $rc, expected $want"
        status=1
    fi
}

expect 2 --port 70000
expect 2 --port -1
expect 2 --port x
expect 2 --port 99x
expect 2 --port ""
expect 2 --port
expect 2 --loops x
expect 2 --loops 0
expect 2 --shards x
expect 2 --shards 0
expect 2 --max-conns -1
expect 2 --max-conns 4294967296
expect 2 --idle-timeout x
expect 2 --idle-timeout -5
expect 2 --rebalance-every x
expect 2 --rebalance-every -1
expect 2 --mem-budget x
expect 2 --mem-budget 1e300G
# Control: every bound itself parses; the unresolvable address then fails
# the bind with exit 1.
expect 1 --port 65535 --loops 2 --shards 2 --max-conns 4294967295 \
    --idle-timeout 0 --rebalance-every 18446744073709551615 \
    --bind 256.0.0.1

# The client's bounds themselves are accepted by recoil_served_smoke, which
# runs them against a live daemon.
expect_client() {
    timeout 20 "$client" "$@" >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: recoil_client $* exited $rc, expected 2"
        status=1
    fi
}

expect_client --port 70000 demo
expect_client --port 0 demo
expect_client --port -1 demo
expect_client --port x demo
expect_client --port 99x demo
expect_client --port "" demo
expect_client --port
expect_client --port 1 --parallelism 99999999999 demo
expect_client --port 1 --parallelism 4294967296 demo
expect_client --port 1 --parallelism x demo
expect_client --port 1 --parallelism 0 demo
expect_client --port 1 --parallelism -4 demo
expect_client --port 1 --range 1000:50000x demo
expect_client --port 1 --range x1000:50000 demo
expect_client --port 1 --range 1000 demo
expect_client --port 1 --range 1000: demo
expect_client --port 1 --range :50000 demo
expect_client --port 1 --range 0:18446744073709551616 demo
expect_client --port 1 --bench-tenants 5x
expect_client --port 1 --bench-tenants 0
expect_client --port 1 --bench-tenants -5

exit $status
