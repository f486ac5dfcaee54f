#!/bin/sh
# Control-plane smoke test: build flickrun, serve the memcached proxy
# with the admin API enabled, and drive a scale-out entirely over HTTP.
#
#   1. GET /healthz answers "ok".
#   2. GET /counters returns a JSON object with the registered sets.
#   3. GET /latency returns the live latency dimensions with the pinned
#      histogram shape (count/p50/p99/p999/max).
#   4. PUT /topology grows the backend set 2 -> 3.
#   5. GET /topology shows the third backend.
#   6. PUT /topology with more backends than -max-backends answers 409.
#   7. One curl invocation fetches /healthz and /counters over one
#      kept-alive connection (the admin server's keep-alive, seen by a
#      real client).
#   8. A PUT whose JSON body is over 1 KiB applies.
#
# Backends are fake addresses: upstream dials are lazy, so the control
# plane is fully exercisable without live backends. Run from the repo
# root (make admin-smoke).
set -eu

ADMIN=127.0.0.1:17070
LISTEN=127.0.0.1:18080
BIN=$(mktemp -d)/flickrun
trap 'kill $PID 2>/dev/null || true; rm -rf "$(dirname "$BIN")"' EXIT INT TERM

go build -o "$BIN" ./cmd/flickrun

"$BIN" -service memcachedproxy -listen "$LISTEN" \
    -live-topology -max-backends 3 -admin-addr "$ADMIN" \
    -backend 127.0.0.1:29001 -backend 127.0.0.1:29002 &
PID=$!

# Wait for the admin listener.
i=0
until curl -sf "http://$ADMIN/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "admin-smoke: admin API never came up on $ADMIN" >&2
        exit 1
    fi
    sleep 0.1
done

fail() {
    echo "admin-smoke: $1" >&2
    exit 1
}

# 1. /healthz
out=$(curl -sf "http://$ADMIN/healthz")
[ "$out" = "ok" ] || fail "/healthz said '$out', want 'ok'"

# 2. /counters is a JSON object holding the registered sets.
counters=$(curl -sf "http://$ADMIN/counters")
case $counters in
    *'"sched"'*'"control"'*) ;;
    *) fail "/counters missing expected sets: $counters" ;;
esac

# 3. /latency serves the live pipeline: the service-total and upstream
# dimensions with the pinned histogram field order. No traffic has
# flowed, so counts are 0 — the shape is what the smoke pins.
latency=$(curl -sf "http://$ADMIN/latency")
case $latency in
    '{"total":{"count":'*'"upstream":{"count":'*) ;;
    *) fail "/latency missing dimensions or order not pinned: $latency" ;;
esac
case $latency in
    *'"p50"'*'"p99"'*'"p999"'*'"max"'*) ;;
    *) fail "/latency missing histogram fields: $latency" ;;
esac

# 4. PUT a 3-backend topology (one weighted) through the one update path.
code=$(curl -s -o /tmp/admin_smoke_put.$$ -w '%{http_code}' -X PUT \
    -d '{"backends":["127.0.0.1:29001","127.0.0.1:29002",{"addr":"127.0.0.1:29003","weight":2}]}' \
    "http://$ADMIN/topology")
[ "$code" = "200" ] || fail "PUT /topology = $code: $(cat /tmp/admin_smoke_put.$$)"
rm -f /tmp/admin_smoke_put.$$

# 5. The change is visible in GET /topology.
topo=$(curl -sf "http://$ADMIN/topology")
case $topo in
    *'127.0.0.1:29003'*) ;;
    *) fail "PUT not visible in GET /topology: $topo" ;;
esac
case $topo in
    *'"weight":2'*) ;;
    *) fail "weight 2 not visible in GET /topology: $topo" ;;
esac

# 6. Over capacity -> 409, topology unchanged.
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT \
    -d '{"backends":["a:1","b:1","c:1","d:1"]}' "http://$ADMIN/topology")
[ "$code" = "409" ] || fail "over-capacity PUT = $code, want 409"
topo=$(curl -sf "http://$ADMIN/topology")
case $topo in
    *'"a:1"'*) fail "rejected PUT changed the topology: $topo" ;;
esac

# 7. Two requests, one curl invocation: curl reuses the connection
# ("Re-using existing connection" in its verbose log) and both answer.
both=$(curl -sfv "http://$ADMIN/healthz" "http://$ADMIN/counters" 2>/tmp/admin_smoke_v.$$) ||
    fail "two-URL curl failed: $(cat /tmp/admin_smoke_v.$$)"
case $both in
    'ok'*'"sched"'*) ;;
    *) fail "two-URL curl answers: $both" ;;
esac
grep -qi 're-using existing connection' /tmp/admin_smoke_v.$$ ||
    fail "curl did not reuse the admin connection: $(cat /tmp/admin_smoke_v.$$)"
rm -f /tmp/admin_smoke_v.$$

# 8. A PUT body over 1 KiB: weighted entries padded with JSON whitespace.
pad=$(printf '%1200s' '')
big='{"backends":["127.0.0.1:29001",'"$pad"'{"addr":"127.0.0.1:29002","weight":3}]}'
[ ${#big} -gt 1024 ] || fail "large PUT body is only ${#big} bytes"
code=$(curl -s -o /tmp/admin_smoke_put.$$ -w '%{http_code}' -X PUT -d "$big" "http://$ADMIN/topology")
[ "$code" = "200" ] || fail "large PUT /topology = $code: $(cat /tmp/admin_smoke_put.$$)"
case $(cat /tmp/admin_smoke_put.$$) in
    *'"weight":3'*) ;;
    *) fail "large PUT not applied: $(cat /tmp/admin_smoke_put.$$)" ;;
esac
rm -f /tmp/admin_smoke_put.$$

echo "admin-smoke: ok (healthz, counters, latency shape, PUT 2->3, weight visible, 409 on overflow, keep-alive reuse, 1 KiB+ PUT)"
