#!/usr/bin/env bash
# Cluster e2e smoke: spawn 1 tdbd + 3 tcached on loopback, drive the
# fleet with tcache-load -cluster, exercise tcache-cli's cluster
# commands, and verify all three nodes actually served traffic; then
# drive one edge directly (tcache-cli read, tcache-load -cache), whose
# read transactions must each end with their request.
# The tdbd runs with a WAL and is then kill -9'd and restarted on the
# same directory: committed values must survive byte-for-byte at their
# exact versions, and the recovered counter must stay a floor under
# new commits (the eq. 1/eq. 2 edge guarantees assume monotonicity).
# While it lives, a second tdbd on the same -wal-dir must be refused
# (the log directory is flock'ed); once it is killed, the lock is free.
#
# The replication leg then attaches a warm standby (tdbd -replica-of),
# waits for the lag metric to drain, kill -9s the primary a second
# time, promotes the standby with tcache-cli, and verifies zero
# acked-write loss plus the same version-floor monotonicity across the
# failover.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)
LOGS=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN" "$LOGS"' EXIT

echo "== building =="
go build -o "$BIN" ./cmd/tdbd ./cmd/tcached ./cmd/tcache-load ./cmd/tcache-cli

DB=127.0.0.1:7470
EDGES=(127.0.0.1:7471 127.0.0.1:7472 127.0.0.1:7473)
DB_METRICS=127.0.0.1:7480
EDGE0_METRICS=127.0.0.1:7481

# wait_up polls until the daemon at $1 answers the wire protocol, or
# fails the smoke after ~10s.
wait_up() {
  local out
  for _ in $(seq 1 50); do
    # "not found" is the expected answer for an unseeded key; the cli
    # exits nonzero for it, so capture rather than pipe under pipefail.
    out=$("$BIN/tcache-cli" -db "$1" get __probe__ 2>&1 || true)
    if [[ "$out" == *"not found"* ]]; then
      return 0
    fi
    sleep 0.2
  done
  echo "FAIL: daemon at $1 never came up" >&2
  for f in "$LOGS"/*.log; do echo "--- $f"; cat "$f"; done >&2
  return 1
}

WAL="$LOGS/wal"

echo "== spawning tdbd on $DB (wal: $WAL, metrics: $DB_METRICS) =="
# 64 KiB segments: the load seals several, and each seal snapshots once
# the log has outgrown the newest snapshot, so the kill -9 leg below
# recovers from a snapshot plus a tail.
"$BIN/tdbd" -listen "$DB" -wal-dir "$WAL" -wal-segment-size 65536 \
  -metrics-addr "$DB_METRICS" >"$LOGS/tdbd.log" 2>&1 &
TDBD_PID=$!
wait_up "$DB"

for i in "${!EDGES[@]}"; do
  addr=${EDGES[$i]}
  echo "== spawning tcached $i on $addr =="
  metrics_flag=()
  if [ "$i" = 0 ]; then
    # Edge 0 also runs byte-bounded so the smoke can assert the memory
    # gauges on a live daemon: 4 MiB holds the whole 300-object working
    # set, the bound just has to be visible and respected.
    metrics_flag=(-metrics-addr "$EDGE0_METRICS" -max-bytes 4194304 -evict clock)
  fi
  "$BIN/tcached" -listen "$addr" -db "$DB" -name "smoke-edge-$i" \
    "${metrics_flag[@]}" >"$LOGS/tcached-$i.log" 2>&1 &
done
for addr in "${EDGES[@]}"; do
  wait_up "$addr"
done
echo "== all daemons up =="

CLUSTER=$(IFS=,; echo "${EDGES[*]}")

echo "== tcache-load -cluster (with -write-mix through the relay) =="
"$BIN/tcache-load" -db "$DB" -cluster "$CLUSTER" \
  -duration 3s -readers 4 -updaters 2 -write-mix 0.1 -objects 300 | tee "$LOGS/load.log"

grep -q "routing reads and updates over 3-node cluster tier" "$LOGS/load.log"
# The load must have committed read transactions.
read_txns=$(awk '/read txns:/ {print $3}' "$LOGS/load.log")
if [ "${read_txns:-0}" -le 0 ]; then
  echo "FAIL: no read transactions served" >&2
  exit 1
fi
# And update transactions through the unified write path (updaters plus
# the readers' write-mix share, relayed by the edge nodes).
update_txns=$(awk '/update txns:/ {print $3}' "$LOGS/load.log")
if [ "${update_txns:-0}" -le 0 ]; then
  echo "FAIL: no update transactions committed" >&2
  exit 1
fi
# Every node must have served reads (the ring spreads 300 objects).
nodes_serving=$(awk '/^node .*reads [1-9]/ {n++} END {print n+0}' "$LOGS/load.log")
if [ "$nodes_serving" -ne 3 ]; then
  echo "FAIL: only $nodes_serving of 3 nodes served reads" >&2
  cat "$LOGS/load.log"
  exit 1
fi

echo "== tcache-cli cluster round trip =="
"$BIN/tcache-cli" -db "$DB" set smoke-key smoke-value
"$BIN/tcache-cli" -cluster "$CLUSTER" read smoke-key | tee "$LOGS/cli.log"
grep -q 'smoke-key = "smoke-value"' "$LOGS/cli.log"
# grep reads the whole table: -q would quit at the match, and the cli's
# next write would die of SIGPIPE, failing the pipeline under pipefail.
"$BIN/tcache-cli" -cluster "$CLUSTER" stats | grep "aggregate:" >/dev/null

echo "== telemetry: scrape /metrics on tdbd + tcached-0 =="
curl -fsS "http://$DB_METRICS/metrics" >"$LOGS/tdbd-metrics.txt"
# Commits flowed, the WAL fsynced them, the commit histogram saw them,
# and the (replica-less) lag gauge reads zero.
grep -q '^tcache_txns_committed_total [1-9]' "$LOGS/tdbd-metrics.txt"
grep -q '^tcache_wal_fsyncs_total [1-9]' "$LOGS/tdbd-metrics.txt"
grep -q '^tcache_update_commit_ns_count [1-9]' "$LOGS/tdbd-metrics.txt"
grep -qF 'tcache_update_commit_ns_bucket{le="+Inf"}' "$LOGS/tdbd-metrics.txt"
grep -q '^tcache_repl_lag 0' "$LOGS/tdbd-metrics.txt"
# The sealed segments triggered at least one background snapshot.
grep -q '^tcache_snapshots_total [1-9]' "$LOGS/tdbd-metrics.txt"
# The load leaves edge 0 only the entries filled after their key's last
# update, none in some runs: read one through it, so the memory gauges
# below have an entry to count.
"$BIN/tcache-cli" -cache "${EDGES[0]}" read smoke-key >/dev/null
curl -fsS "http://$EDGE0_METRICS/metrics" >"$LOGS/tcached0-metrics.txt"
# The edge served reads with hits and its read-latency histograms are live.
grep -q '^tcache_reads_total [1-9]' "$LOGS/tcached0-metrics.txt"
grep -q '^tcache_hits_total [1-9]' "$LOGS/tcached0-metrics.txt"
grep -qF 'tcache_read_warm_ns_bucket{le="+Inf"}' "$LOGS/tcached0-metrics.txt"
grep -q '^tcache_read_multi_ns_count [1-9]' "$LOGS/tcached0-metrics.txt"
# The byte-bounded edge exposes its memory gauges: entries are resident
# (nonzero) and the ledger respects the configured 4 MiB budget.
grep -q '^tcache_cache_resident_bytes [1-9]' "$LOGS/tcached0-metrics.txt"
grep -q '^tcache_cache_max_bytes 4194304' "$LOGS/tcached0-metrics.txt"
awk '/^tcache_cache_resident_bytes /{r=$2} /^tcache_cache_max_bytes /{m=$2}
     END {if (r+0 > m+0) {print "FAIL: resident " r " exceeds budget " m; exit 1}}' \
  "$LOGS/tcached0-metrics.txt"
curl -fsS "http://$DB_METRICS/healthz" | grep -q 'ok role=primary'
curl -fsS "http://$EDGE0_METRICS/healthz" | grep -q 'ok role=edge'
echo "telemetry surface live on both tiers"

# (After the scrape: this load re-seeds the objects, whose invalidations
# empty edge 0's cache.)
echo "== one edge, one OpReadTxn per transaction (tcache-cli, tcache-load) =="
EDGE=${EDGES[1]}
"$BIN/tcache-cli" -cache "$EDGE" read smoke-key | tee "$LOGS/cli-edge.log"
grep -q 'smoke-key = "smoke-value"' "$LOGS/cli-edge.log"
grep -q 'transaction committed' "$LOGS/cli-edge.log"
# A transaction that meets a missing key fails — and ends with its request.
if "$BIN/tcache-cli" -cache "$EDGE" read smoke-key __ghost__ >"$LOGS/cli-ghost.log" 2>&1; then
  echo "FAIL: a read transaction over a missing key committed" >&2
  exit 1
fi
"$BIN/tcache-load" -db "$DB" -cache "$EDGE" \
  -duration 1s -readers 2 -updaters 1 -objects 300 | tee "$LOGS/load-edge.log"
edge_read_txns=$(awk '/read txns:/ {print $3}' "$LOGS/load-edge.log")
if [ "${edge_read_txns:-0}" -le 0 ]; then
  echo "FAIL: no read transactions served by $EDGE" >&2
  exit 1
fi
# Every transaction the edge started has ended: none outlives its request.
"$BIN/tcache-cli" -cache "$EDGE" stats | awk '
  $1 == "txns_started" {s = $2} $1 == "txns_committed" {c = $2} $1 == "txns_aborted" {a = $2}
  END {
    if (s + 0 == 0 || s != c + a) {print "FAIL: started " s ", committed " c ", aborted " a > "/dev/stderr"; exit 1}
    print "edge transactions: started " s " = committed " c " + aborted " a
  }'

echo "== kill -9 tdbd, recover from the WAL =="
# get prints: key = "value" @counter.node deps=[...]; field 4 is the
# version tag and the counter is its part before the dot.
ver_before=$("$BIN/tcache-cli" -db "$DB" get smoke-key | awk '{print $4}')
counter_before=${ver_before#@}
counter_before=${counter_before%%.*}
if ! [[ "$counter_before" =~ ^[0-9]+$ ]]; then
  echo "FAIL: could not parse version counter from '$ver_before'" >&2
  exit 1
fi

# Two daemons positioning writes into one segment would overwrite each
# other's commits: the live tdbd holds the directory's lock.
if "$BIN/tdbd" -listen 127.0.0.1:7479 -wal-dir "$WAL" >"$LOGS/tdbd-second.log" 2>&1; then
  echo "FAIL: a second tdbd opened the live primary's -wal-dir" >&2
  exit 1
fi
grep -q "locked by another process" "$LOGS/tdbd-second.log"

kill -9 "$TDBD_PID"
wait "$TDBD_PID" 2>/dev/null || true
"$BIN/tdbd" -listen "$DB" -wal-dir "$WAL" -wal-segment-size 65536 >"$LOGS/tdbd-restart.log" 2>&1 &
TDBD_PID=$!
wait_up "$DB"
# The killed daemon's lock died with it, and the zero fill it left ahead
# of its last commit is the clean end of the log, not a torn tail. It
# recovers from the snapshot the load triggered, plus the tail after it.
grep -q "recovered $WAL: [1-9][0-9]* snapshot entries" "$LOGS/tdbd-restart.log"
grep -q "torn tail 0 bytes" "$LOGS/tdbd-restart.log"

# The committed value must come back at its exact pre-kill version.
after=$("$BIN/tcache-cli" -db "$DB" get smoke-key)
echo "$after"
if [[ "$after" != "smoke-key = \"smoke-value\" $ver_before"* ]]; then
  echo "FAIL: smoke-key not recovered at $ver_before (got: $after)" >&2
  cat "$LOGS/tdbd-restart.log" >&2
  exit 1
fi

# A post-restart commit must mint a strictly higher counter — the
# recovered counter is the floor the edge consistency bounds rest on.
"$BIN/tcache-cli" -db "$DB" set smoke-key-restart survived
ver_new=$("$BIN/tcache-cli" -db "$DB" get smoke-key-restart | awk '{print $4}')
counter_new=${ver_new#@}
counter_new=${counter_new%%.*}
if ! [[ "$counter_new" =~ ^[0-9]+$ ]] || [ "$counter_new" -le "$counter_before" ]; then
  echo "FAIL: post-restart counter $ver_new does not exceed pre-kill counter $counter_before" >&2
  exit 1
fi
echo "version floor held: $ver_before before kill, $ver_new after restart"

# The edge tier must keep serving against the recovered backend (stale
# fill connections are redialed transparently; this read is a miss
# filled from the restarted tdbd).
"$BIN/tcache-cli" -cluster "$CLUSTER" read smoke-key-restart | tee "$LOGS/cli-restart.log"
grep -q 'smoke-key-restart = "survived"' "$LOGS/cli-restart.log"

echo "== replication leg: warm standby streaming from the primary =="
SDB=127.0.0.1:7474
SWAL="$LOGS/wal-standby"
"$BIN/tdbd" -listen "$SDB" -wal-dir "$SWAL" -node-id 1 -replica-of "$DB" \
  >"$LOGS/tdbd-standby.log" 2>&1 &
wait_up "$SDB"
"$BIN/tcache-cli" -db "$SDB" ping | tee "$LOGS/standby-ping.log"
grep -q "role=standby" "$LOGS/standby-ping.log"

# A write addressed to the standby must not fork history: the standby
# rejects it with a typed redirect naming the leader, and the
# failover-aware client (tcache-cli uses tcache.Dial) follows the
# redirect and commits on the primary. Verify the value landed there.
"$BIN/tcache-cli" -db "$SDB" set redirect-key redirect-value
redirected=$("$BIN/tcache-cli" -db "$DB" get redirect-key)
if [[ "$redirected" != 'redirect-key = "redirect-value"'* ]]; then
  echo "FAIL: standby-addressed write did not land on the primary (got: $redirected)" >&2
  exit 1
fi

echo "== seeding acked writes through the primary =="
for i in $(seq 1 40); do
  "$BIN/tcache-cli" -db "$DB" set "repl-key-$i" "repl-val-$i" >/dev/null
done

# ping_counter extracts the version counter from tcache-cli ping output.
ping_counter() {
  "$BIN/tcache-cli" -db "$1" ping | grep -o 'counter=[0-9]*' | cut -d= -f2
}

# The standby must converge on the primary's counter, and the primary's
# exported lag metric must drain to zero — the gate that replication is
# live, not just configured.
counter_repl=$(ping_counter "$DB")
caught_up=
for _ in $(seq 1 50); do
  ping_out=$("$BIN/tcache-cli" -db "$DB" ping)
  standby_counter=$(ping_counter "$SDB")
  if [[ "$ping_out" == *"repl-lag=0"* && "$standby_counter" -ge "$counter_repl" ]]; then
    caught_up=1
    break
  fi
  sleep 0.2
done
if [ -z "$caught_up" ]; then
  echo "FAIL: standby never caught up (primary: $ping_out, standby counter: ${standby_counter:-?} want $counter_repl)" >&2
  cat "$LOGS/tdbd-standby.log" >&2
  exit 1
fi
echo "replication lag drained at counter $counter_repl"

echo "== kill -9 the primary, promote the standby =="
kill -9 "$TDBD_PID"
wait "$TDBD_PID" 2>/dev/null || true
"$BIN/tcache-cli" -db "$SDB" promote | tee "$LOGS/promote.log"
grep -q "is primary at counter=" "$LOGS/promote.log"
"$BIN/tcache-cli" -db "$SDB" ping | tee "$LOGS/promoted-ping.log"
grep -q "role=primary" "$LOGS/promoted-ping.log"

# Zero acked-write loss: every write acknowledged by the dead primary
# is on the promoted standby, byte-for-byte.
for i in $(seq 1 40); do
  got=$("$BIN/tcache-cli" -db "$SDB" get "repl-key-$i")
  if [[ "$got" != "repl-key-$i = \"repl-val-$i\""* ]]; then
    echo "FAIL: acked repl-key-$i lost in failover (got: $got)" >&2
    cat "$LOGS/tdbd-standby.log" >&2
    exit 1
  fi
done

# Post-promotion commits must mint strictly higher counters than
# anything the dead primary acknowledged — the same version floor the
# recovery leg gates, now across a failover.
"$BIN/tcache-cli" -db "$SDB" set promoted-key promoted-value
ver_promoted=$("$BIN/tcache-cli" -db "$SDB" get promoted-key | awk '{print $4}')
counter_promoted=${ver_promoted#@}
counter_promoted=${counter_promoted%%.*}
if ! [[ "$counter_promoted" =~ ^[0-9]+$ ]] || [ "$counter_promoted" -le "$counter_repl" ]; then
  echo "FAIL: post-promotion counter $ver_promoted does not exceed pre-kill counter $counter_repl" >&2
  exit 1
fi
echo "failover version floor held: counter $counter_repl before kill, $ver_promoted after promotion"

echo "== cluster smoke OK =="
