GO ?= go

.PHONY: all build test race vet lint loc benchsmoke clustersmoke walsmoke replsmoke telemetry-smoke fuzz

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also sweeps GOMAXPROCS over the packages whose behaviour depends
# on the stripe count (and over the workload generators' shared key
# tables and the monitor's reused classification scratch), over the log (flusher, appenders and tailers share
# one positioned-write file), over the database and its lock manager
# (the commit door, key-ordered locking, the money-transfer invariant
# with crossed key orders),
# over the write path's tests (commit, install, relay), over the read transactions' (owned ReadTxn handles,
# core.Cache.Read's parked transactions, Close mid-flight) and over the routed read's
# (callers writing their own frames on a shared connection, pipelined
# sub-batches, dispatch workers, the router's one-key and batch reads
# and its per-node health watchers: ejection, probation, failover, a
# node down at start), the wire's read transactions
# (server-minted, one per request, several clients at once) and the
# servers' and clients' shutdown and cancellation paths (updates parked
# behind a held key, db.KeyHold), and over retention (decoded items own
# their bytes: a standby's or a recovered store pins no replication
# frame or segment read), so a
# failure that only shows at 2 or 4 CPUs cannot hide on a
# 1-CPU runner; the 'Determin|Subgraph|Golden|Theorem1' line is the
# same-seed-same-bytes gate (graph order, topology builds, column runs,
# every figure's -quick table) plus Theorem 1 on both topologies under
# every strategy. The last line runs
# the allocs/op table (alloc_test.go) without the race detector, which
# moves its pooled-record rows.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/core ./internal/evict ./internal/kv ./internal/codec ./internal/telemetry ./internal/workload ./internal/monitor
	$(GO) test -race -cpu 1,2,4 ./internal/wal
	$(GO) test -race -cpu 1,2,4 ./internal/db ./internal/lock
	$(GO) test -race -cpu 1,2,4 -run 'Update|Install|Commit' . ./internal/cluster
	$(GO) test -race -cpu 1,2,4 -run 'ReadTxn|Close|Txn' . ./internal/core
	$(GO) test -race -cpu 1,2,4 -run 'Mux|Pipelin|Worker|StaleConn|ReadTxn|WireClients|Blocked|CtxCancelled|Stuck|PendingSlots|Skeleton' ./internal/transport
	$(GO) test -race -cpu 1,2,4 -run 'ReadItem|Health|Probation|Failover|DownAtStart' ./internal/cluster
	$(GO) test -race -cpu 1,2,4 -run 'Owns|Pins' ./internal/transport ./internal/db ./internal/wal
	$(GO) test -race -cpu 1,2,4 -run 'Determin|Subgraph|Golden|Theorem1' ./internal/graph ./internal/experiment
	$(GO) test -run 'Alloc' -cpu 1,2,4 .

# loc prints non-test Go lines per package (bench/ excluded) — the size
# number tracked next to ns/op.
loc:
	./scripts/loc.sh

vet:
	$(GO) vet ./...

# lint is the full static-analysis gate: go vet, gofmt (no file may
# differ from its formatted form), staticcheck (when installed — CI
# always runs it via its pinned action), and tcachelint,
# the repo's own analyzer suite (see README "Static analysis").
# tcachelint is built from this module's working tree, so the analyzer
# version can never drift from the code it checks.
lint: vet
	test -z "$$(gofmt -l .)"
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	$(GO) run ./cmd/tcachelint ./...

# clustersmoke runs the end-to-end fleet check: 1 tdbd + 3 tcached on
# loopback, driven by tcache-load -cluster (with a -write-mix share
# committed through the edge relay) and tcache-cli. The tdbd runs with
# a WAL and is kill -9'd and restarted mid-smoke: committed state and
# version floors must survive.
clustersmoke:
	./scripts/cluster_smoke.sh

# replsmoke is the replication gate: the WAL tailer and replication
# stream race-clean (end-to-end streaming, restart resync, 20%-loss
# chaos), the SIGKILL-the-primary promotion torture, client failover
# through tcache.Dial, and router failover through a chaos link.
replsmoke:
	$(GO) test -race -count=1 -run 'Tailer|Repl|Standby|Failover' ./internal/wal ./internal/transport
	$(GO) test -race -count=1 -run 'Dial|Probation|RouterFailover' . ./internal/cluster

# telemetry-smoke is the observability gate: the telemetry package
# race-clean (histogram hammer, registry, Prometheus golden file,
# admin listener) and the end-to-end metric-surface tests (live /metrics
# scrapes on both daemons, OpStats and /metrics matched by registry
# name, WithTelemetry hooks, cluster stats breakdown). The warm-hit overhead gate is alloc_test.go's
# telemetry-on == telemetry-off row pair.
telemetry-smoke:
	$(GO) test -race -count=1 ./internal/telemetry
	$(GO) test -race -count=1 -run 'ServeMetrics|OpStatsMatches|WithTelemetry|ClusterStatsReports' .

# walsmoke is the durability gate: the WAL package race-clean (torture
# replays — truncations, bit flips, sector holes in an in-place batch —
# crash windows, group commit, the directory lock), the db-level
# recovery + process-SIGKILL torture, and short fuzz shakes of the
# replay path and of the snapshot-image parser.
walsmoke:
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'Recover|Snapshot|Crash|Close|Compact|ConcurrentCommits|Background' ./internal/db
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 15s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzSnapshotImage -fuzztime 15s ./internal/wal

# benchsmoke is the CI quick pass: hot paths, what the consistency check
# adds to a plain read (check-ns/txn), the experiment's monitor, the
# database's update commit and its dependency merge, the codec micro-benchmarks, and
# two figures through the printer itself (every figure's table is
# internal/experiment's golden test, part of `go test ./...`).
benchsmoke:
	$(GO) test -run '^$$' -bench 'Cache|Remote|NominalOverhead|Monitor|DBUpdateTxn|MergeDeps' -benchtime 100ms .
	$(GO) test -run '^$$' -bench 'Codec|WireRoundTrip' -benchtime 100ms ./internal/transport
	$(GO) run ./cmd/tcache-figs -quick -fig 3,headline

# fuzz gives the wire codec, the WAL replay path and the snapshot-image
# parser a short adversarial shake (decoders must never panic or
# over-allocate; accepted inputs must round-trip; recovery must stay
# stable on hostile segments; an accepted image must re-parse identically).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 30s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzSnapshotImage -fuzztime 15s ./internal/wal
