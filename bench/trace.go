package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"tcache"
	"tcache/internal/cluster"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/transport"
)

// Tracing is done from the benchmark's own files, around the calls into
// each layer, at the seams a caller can interpose without touching the
// layers themselves:
//
//	root        around Cache.ReadTxn / Cache.Update (the load generator)
//	client seam a Backend wrapper around *cluster.Router under the
//	            client cache: everything below it is routing + wire
//	edge seam   a core.Backend wrapper around the edge's DBClient:
//	            everything below it is the edge→db hop and the DB
//
// Spans are kept in memory and written out (-trace-out) after the run.

type spanKind uint8

const (
	spanRootRead spanKind = iota
	spanRootScan
	spanRootUpdate
	spanClientReadItem
	spanClientReadItems
	spanClientUpdate
	spanEdgeReadItem
	spanEdgeReadItems
	spanEdgeUpdate
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"root.read_txn", "root.scan_txn", "root.update",
	"client.read_item", "client.read_items", "client.validated_update",
	"edge.read_item", "edge.read_items", "edge.validated_update",
}

func (k spanKind) isRoot() bool   { return k <= spanRootUpdate }
func (k spanKind) isClient() bool { return k >= spanClientReadItem && k <= spanClientUpdate }
func (k spanKind) isEdge() bool   { return k >= spanEdgeReadItem }

// span is one timed interval. txn links the spans of one transaction;
// edge-seam spans carry txn 0 because the wire protocol has no trace id
// to carry it across the socket (ROADMAP item 6b).
type span struct {
	txn        uint64
	start, end int64 // ns since the tracer's epoch
	kind       spanKind
}

// spanBuf is one writer's span storage. Load-generator workers own
// theirs exclusively; an edge's is shared by its server goroutines and
// takes mu.
type spanBuf struct {
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped uint64
}

func (b *spanBuf) add(s span) {
	if len(b.spans) < b.limit {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
}

// opTrace is a worker's tracing state, carried to the client seam in
// the worker's context: the id of the transaction it is running and
// where its spans go.
type opTrace struct {
	tr  *tracer
	txn uint64
	buf *spanBuf
}

type traceKey struct{}

type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	bufs    []*spanBuf
	workers uint64 // worker traces handed out; makes txn ids unique

	// Invalidation lag: per commit version, the time the primary
	// committed it (its OnCommit hook) and the time its first
	// invalidation reached the client seam's Subscribe sink.
	lagMu sync.Mutex
	lag   map[uint64]lagEntry
	lagNs *hist
}

type lagEntry struct{ committed, arrived int64 }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), lag: make(map[uint64]lagEntry), lagNs: newHist()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newBuf(limit int) *spanBuf {
	b := &spanBuf{limit: limit, spans: make([]span, 0, min(limit, 1<<12))}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// workerTrace gives one of a phase's n workers its tracing state — a
// span buffer and a txn id range of its own — and a context that
// carries it down to the client seam.
func (t *tracer) workerTrace(ctx context.Context, n int) (context.Context, *opTrace) {
	buf := t.newBuf(spanCap / n)
	t.mu.Lock()
	t.workers++
	ot := &opTrace{tr: t, txn: t.workers << 40, buf: buf}
	t.mu.Unlock()
	return context.WithValue(ctx, traceKey{}, ot), ot
}

// child records a client-seam span for the transaction running in ctx.
// Calls outside a traced transaction (warm-up, probes) record nothing.
func (t *tracer) child(ctx context.Context, kind spanKind, start int64) {
	if ot, _ := ctx.Value(traceKey{}).(*opTrace); ot != nil {
		ot.buf.add(span{txn: ot.txn, kind: kind, start: start, end: t.now()})
	}
}

// lagEvent notes that version was committed, or that an invalidation
// for it arrived (the other argument is 0). The commit hook runs before
// the database sends the invalidations, so committed comes first.
func (t *tracer) lagEvent(version uint64, committed, arrived int64) {
	t.lagMu.Lock()
	e := t.lag[version]
	switch {
	case committed != 0:
		e.committed = committed
	case e.arrived == 0 && e.committed != 0:
		e.arrived = arrived
		t.lagNs.record(arrived - e.committed)
	}
	t.lag[version] = e
	t.lagMu.Unlock()
}

// reset forgets the spans and lag samples recorded so far (warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	for _, b := range t.bufs {
		b.mu.Lock()
		b.spans, b.dropped = b.spans[:0], 0
		b.mu.Unlock()
	}
	t.mu.Unlock()
	t.lagMu.Lock()
	t.lagNs = newHist()
	t.lagMu.Unlock()
}

// spanSummary is what the per-layer table needs from the spans.
type spanSummary struct {
	count   [numSpanKinds]uint64
	totalNs [numSpanKinds]int64
	clientP *hist // client-seam span durations
	dropped uint64
}

func (t *tracer) summarize() spanSummary {
	s := spanSummary{clientP: newHist()}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		b.mu.Lock()
		for _, sp := range b.spans {
			s.count[sp.kind]++
			s.totalNs[sp.kind] += sp.end - sp.start
			if sp.kind.isClient() {
				s.clientP.record(sp.end - sp.start)
			}
		}
		s.dropped += b.dropped
		b.mu.Unlock()
	}
	return s
}

func (s *spanSummary) sum(pred func(spanKind) bool) (n uint64, ns int64) {
	for k := spanKind(0); k < numSpanKinds; k++ {
		if pred(k) {
			n += s.count[k]
			ns += s.totalNs[k]
		}
	}
	return n, ns
}

// dump writes every kept span as one JSON object per line. parent names
// the span that caused this one: a client-seam span's parent is the
// root span with the same txn; edge-seam spans have no known parent.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	type row struct {
		Txn     uint64 `json:"txn"`
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	t.mu.Lock()
	for _, b := range t.bufs {
		b.mu.Lock()
		for _, sp := range b.spans {
			r := row{Txn: sp.txn, Name: spanNames[sp.kind], StartNs: sp.start, EndNs: sp.end}
			if sp.kind.isClient() {
				r.Parent = "root"
			}
			if err == nil {
				err = enc.Encode(r)
			}
		}
		b.mu.Unlock()
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// clientSeam interposes on everything the client cache asks of the
// cluster tier. It is the hand-built equivalent of the unexported
// backend tcache.DialCluster puts there.
type clientSeam struct {
	r  *cluster.Router
	tr *tracer
}

var (
	_ tcache.Backend        = (*clientSeam)(nil)
	_ tcache.BatchBackend   = (*clientSeam)(nil)
	_ tcache.UpdaterBackend = (*clientSeam)(nil)
)

func (s *clientSeam) ReadItem(ctx context.Context, key tcache.Key) (tcache.Item, bool, error) {
	start := s.tr.now()
	item, ok, err := s.r.ReadItem(ctx, key)
	s.tr.child(ctx, spanClientReadItem, start)
	return item, ok, err
}

func (s *clientSeam) ReadItems(ctx context.Context, keys []tcache.Key) ([]tcache.Lookup, error) {
	start := s.tr.now()
	lookups, err := s.r.ReadItems(ctx, keys)
	s.tr.child(ctx, spanClientReadItems, start)
	return lookups, err
}

func (s *clientSeam) ValidatedUpdate(ctx context.Context, reads []tcache.ObservedRead, writes []tcache.KeyValue) (tcache.Version, error) {
	start := s.tr.now()
	v, err := s.r.ValidatedUpdate(ctx, reads, writes)
	s.tr.child(ctx, spanClientUpdate, start)
	return v, err
}

func (s *clientSeam) Subscribe(name string, sink func(tcache.Invalidation)) (func(), error) {
	return s.r.Subscribe(name, func(inv transport.Invalidation) {
		s.tr.lagEvent(inv.Version.Counter, 0, s.tr.now())
		sink(db.Invalidation{Key: inv.Key, Version: inv.Version})
	})
}

// edgeSeam interposes on everything an edge's cache asks of the
// database tier.
type edgeSeam struct {
	b   *transport.DBClient
	tr  *tracer
	buf *spanBuf
}

func (s *edgeSeam) record(kind spanKind, start int64) {
	end := s.tr.now()
	s.buf.mu.Lock()
	s.buf.add(span{kind: kind, start: start, end: end})
	s.buf.mu.Unlock()
}

func (s *edgeSeam) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	start := s.tr.now()
	item, ok, err := s.b.ReadItem(ctx, key)
	s.record(spanEdgeReadItem, start)
	return item, ok, err
}

func (s *edgeSeam) ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error) {
	start := s.tr.now()
	lookups, err := s.b.ReadItems(ctx, keys)
	s.record(spanEdgeReadItems, start)
	return lookups, err
}

func (s *edgeSeam) ValidatedUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.Version, error) {
	start := s.tr.now()
	v, err := s.b.ValidatedUpdate(ctx, reads, writes)
	s.record(spanEdgeUpdate, start)
	return v, err
}
