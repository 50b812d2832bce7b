GO ?= go

.PHONY: all build test race vet lint loc benchsmoke clustersmoke fuzz

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs every test under the race detector at 1, 2 and 4 CPUs (one
# test binary runs all three, so internal/experiment needs more than the
# default 10 min on 2 CPUs), then the allocs/op table (alloc_test.go)
# without the detector, which moves the pooled-record rows.
race:
	$(GO) test -race -cpu 1,2,4 -timeout 20m ./...
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
