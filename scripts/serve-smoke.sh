#!/bin/sh
# serve-smoke: end-to-end check of the bddserve daemon — tenant round trip
# (netlist -> ops -> approx -> count -> snapshot -> restore), a forced
# budget-degrade on a starved tenant with the quality ledger and metrics
# checked, tenant isolation (a concurrent tenant stays exact), Prometheus
# lint via `obscheck -prom`, and a graceful drain on SIGTERM.
#
# Usage: scripts/serve-smoke.sh [addr]
# Artifacts land under /tmp/bddkit-serve-smoke* (CI uploads them on failure).
set -eu

ADDR="${1:-127.0.0.1:6173}"
BASE="http://$ADDR"
LOG=/tmp/bddkit-serve-smoke.log
SNAP=/tmp/bddkit-serve-smoke-snapshot.txt
M1=/tmp/bddkit-serve-smoke-metrics-1.txt
M2=/tmp/bddkit-serve-smoke-metrics-2.txt
PID=""

fail() {
    echo "serve-smoke: $1" >&2
    [ -n "$PID" ] && kill "$PID" 2>/dev/null
    exit 1
}

go build -o /tmp/bddkit-bddserve ./cmd/bddserve
go build -o /tmp/bddkit-obscheck-serve ./cmd/obscheck

# Flag validation is wired in: a bad quota must be rejected before listen.
if /tmp/bddkit-bddserve -quota -5 2>/dev/null; then
    fail "bddserve accepted -quota -5"
fi

/tmp/bddkit-bddserve -addr "$ADDR" -deadline 30s >"$LOG" 2>&1 &
PID=$!

ok=1
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then ok=0; break; fi
    sleep 0.1
done
[ $ok -eq 0 ] || fail "daemon never answered /healthz"

# --- tenant round trip -------------------------------------------------
curl -sf -X PUT "$BASE/v1/tenants/smoke" >/dev/null || fail "create tenant"
curl -sf -X POST --data-binary @testdata/counter.net \
    "$BASE/v1/tenants/smoke/netlist" >/dev/null || fail "netlist upload"
curl -sf -X POST -d '{"op":"not","args":["tc"],"result":"ntc"}' \
    "$BASE/v1/tenants/smoke/ops" >/dev/null || fail "ops not"
curl -sf -X POST -d '{"op":"sp","target":"tc","threshold":16,"result":"tc_sp"}' \
    "$BASE/v1/tenants/smoke/approx" >/dev/null || fail "approx sp"
curl -sf -X POST -d '{"target":"tc","mode":"exact"}' \
    "$BASE/v1/tenants/smoke/count" | grep -q '"exact": "16"' \
    || fail "count of tc is not 16"
curl -sf "$BASE/v1/tenants/smoke/snapshot" >"$SNAP" || fail "snapshot"
curl -sf -X PUT "$BASE/v1/tenants/mirror" >/dev/null || fail "create mirror"
curl -sf -X POST --data-binary @"$SNAP" \
    "$BASE/v1/tenants/mirror/restore" >/dev/null || fail "restore"
curl -sf -X POST -d '{"target":"tc","mode":"exact"}' \
    "$BASE/v1/tenants/mirror/count" | grep -q '"exact": "16"' \
    || fail "restored count of tc is not 16"

# --- forced budget-degrade --------------------------------------------
# The starved tenant's quota is far below its compiled multiplier, so the
# first budgeted operation must come back degraded-but-sound, while the
# concurrent smoke tenant stays exact.
curl -sf -X PUT -d '{"quota":32}' "$BASE/v1/tenants/starved" >/dev/null \
    || fail "create starved tenant"
curl -sf -X POST --data-binary @testdata/mult4.net \
    "$BASE/v1/tenants/starved/netlist" >/dev/null || fail "mult4 upload"
DEGRADED=$(curl -sf -X POST -d '{"op":"and","args":["p7","p6"],"result":"hi"}' \
    "$BASE/v1/tenants/starved/ops") || fail "starved ops request failed"
echo "$DEGRADED" | grep -q '"degraded": true' \
    || fail "starved tenant answer not marked degraded: $DEGRADED"
echo "$DEGRADED" | grep -q '"degrade_reason"' \
    || fail "degraded answer carries no reason"
curl -sf -X POST -d '{"target":"tc","mode":"exact"}' \
    "$BASE/v1/tenants/smoke/count" >/tmp/bddkit-serve-smoke-isolated.json \
    || fail "smoke tenant count after degrade"
grep -q '"exact": "16"' /tmp/bddkit-serve-smoke-isolated.json \
    || fail "concurrent tenant no longer exact after another tenant degraded"
if grep -q '"degraded": true' /tmp/bddkit-serve-smoke-isolated.json; then
    fail "concurrent tenant marked degraded"
fi

# The loss is on the starved tenant's quality ledger, and only there...
curl -sf "$BASE/v1/tenants/starved/quality" | grep -q '"approx.degrade"' \
    || fail "starved tenant's quality ledger has no approx.degrade record"
if curl -sf "$BASE/v1/tenants/smoke/quality" | grep -q '"approx.degrade"'; then
    fail "smoke tenant's quality ledger holds the starved tenant's degrade"
fi

# ...and on /metrics, which lints clean across two scrapes.
curl -sf "$BASE/metrics" >"$M1" || fail "first metrics scrape"
grep -q 'serve_tenant_degrades_total{tenant="starved"} 1' "$M1" \
    || fail "metrics missing starved tenant degrade count"
grep -q 'serve_tenant_degrades_total{tenant="smoke"} 0' "$M1" \
    || fail "metrics missing smoke tenant zero degrade count"
grep -q 'quality_approx_degrade_mass_permille_count{tenant="starved"}' "$M1" \
    || fail "metrics missing the starved tenant's degrade on its quality ledger"
curl -sf "$BASE/metrics" >"$M2" || fail "second metrics scrape"
/tmp/bddkit-obscheck-serve -prom -quiet "$M1" "$M2" || fail "obscheck -prom lint"

# --- graceful drain ----------------------------------------------------
kill -TERM "$PID"
wait "$PID" || fail "daemon exited nonzero on SIGTERM"
PID=""
grep -q 'drained in' "$LOG" || fail "shutdown did not drain (log: $LOG)"

echo "serve-smoke OK"
