GO ?= go

.PHONY: all build test race vet lint loc bench benchcluster benchwrite benchdurable benchrepl benchtelemetry bencheviction benchsmoke clustersmoke walsmoke replsmoke telemetry-smoke fuzz

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also sweeps GOMAXPROCS over the packages whose behaviour depends
# on the stripe count, and over the write path's tests (commit, install,
# relay), so a failure that only shows at 2 or 4 CPUs cannot hide on a
# 1-CPU runner.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/core ./internal/evict ./internal/kv ./internal/codec ./internal/telemetry
	$(GO) test -race -cpu 1,2,4 -run 'Update|Install|Commit' . ./internal/cluster

# loc prints non-test Go lines per package (bench/ excluded) — the size
# number tracked next to ns/op.
loc:
	./scripts/loc.sh

vet:
	$(GO) vet ./...

# lint is the full static-analysis gate: go vet, staticcheck (when
# installed — CI always runs it via its pinned action), and tcachelint,
# the repo's own analyzer suite (see README "Static analysis").
# tcachelint is built from this module's working tree, so the analyzer
# version can never drift from the code it checks.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	$(GO) run ./cmd/tcachelint ./...

# The bench* targets each regenerate one checked-in benchmark JSON and
# enforce its allocs/op budget; CI uploads the files as artifacts and
# fails on regressions:
#   bench        BENCH_pr3.json  remote (loopback wire) + hit-path
#   benchcluster BENCH_pr4.json  cluster routing overhead vs plain Dial
#   benchwrite   BENCH_pr5.json  unified write path cost per tier
bench:
	$(GO) run ./cmd/tcache-bench -benchjson BENCH_pr3.json -bench-budget bench_budget.json

benchcluster:
	$(GO) run ./cmd/tcache-bench -fig cluster

benchwrite:
	$(GO) run ./cmd/tcache-bench -fig writepath

#   benchdurable BENCH_pr7.json  sync-commit throughput vs concurrent
#   writers; gates that group commit coalesces fsyncs (≤0.9/commit @16)
benchdurable:
	$(GO) run ./cmd/tcache-bench -fig durability

#   benchrepl    BENCH_pr8.json  commit cost with no/async/sync
#   replication plus the client-visible failover time; gates async
#   convergence, sync lag = 0, and failover under 5s
benchrepl:
	$(GO) run ./cmd/tcache-bench -fig replication

#   benchtelemetry BENCH_pr9.json  warm-hit cost with telemetry off vs
#   on; gates that the instrumented hit adds zero allocations
benchtelemetry:
	$(GO) run ./cmd/tcache-bench -fig telemetry

#   bencheviction BENCH_pr10.json  byte-budgeted cache: per-policy hit
#   ratio under zipfian pressure, the bounded-warm-hit zero-extra-alloc
#   gate, and 1-vs-8-stripe scaling of the bounded touch path
bencheviction:
	$(GO) run ./cmd/tcache-bench -fig eviction

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
# admin listener), the end-to-end metric-surface tests (live /metrics
# scrapes on both daemons, WithTelemetry hooks, cluster stats
# breakdown), then the warm-hit overhead gate.
telemetry-smoke:
	$(GO) test -race -count=1 ./internal/telemetry
	$(GO) test -race -count=1 -run 'ServeMetrics|WithTelemetry|ClusterStatsReports' .
	$(GO) run ./cmd/tcache-bench -fig telemetry

# walsmoke is the durability gate: the WAL package race-clean (torture
# replays, crash windows, group commit), the db-level recovery +
# process-SIGKILL torture, and a short replay fuzz shake.
walsmoke:
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'Recover|Snapshot|Crash|Close|Compact|ConcurrentCommits|Background' ./internal/db
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 15s ./internal/wal

# benchsmoke is the CI quick pass: paper figures, hot paths, the codec
# micro-benchmarks, and the PR 5 unified write-path benches.
benchsmoke:
	$(GO) test -run '^$$' -bench 'Fig|Headline|Cache|Remote' -benchtime 100ms .
	$(GO) test -run '^$$' -bench 'Codec|WireRoundTrip' -benchtime 100ms ./internal/transport
	$(GO) run ./cmd/tcache-bench -fig writepath -quick

# fuzz gives the wire codec and the WAL replay path a short adversarial
# shake (decoders must never panic or over-allocate; accepted inputs
# must round-trip; recovery must stay stable on hostile segments).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 30s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal
