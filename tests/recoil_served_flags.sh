#!/bin/sh
# recoil_served must refuse a malformed numeric flag with its usage text and
# exit 2, before it seeds or binds anything. Every case runs under a
# timeout: a flag that is wrongly accepted boots the daemon, which then
# serves until killed (exit 124).
#
# Usage: recoil_served_flags.sh PATH/TO/recoil_served
served="$1"
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

exit $status
