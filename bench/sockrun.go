package main

import (
	"context"
	"fmt"

	"tcache/internal/core"
)

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runSocket runs one pass of a socket workload and fills res.
func runSocket(ctx context.Context, o *options, res *result) error {
	s := newSockWorkload(o.workload, o.seed, o.quick)
	if o.trace == 1 {
		return s.runTraced(ctx, o, res)
	}

	// The run is s.reps repetitions of set-up + timed phases, each on a
	// freshly built topology, and reports the median repetition. Two
	// instances of the same topology in the same process differ by up to
	// 10 % in closed-loop throughput (lock convoys, map layout, which
	// CPU the hot goroutines land on), and one set-up sample does not
	// repeat within any useful bound either; the median over
	// repetitions is steadier than one long measurement of one instance.
	reps := s.reps
	if o.quick {
		reps = 1
	}
	ph := splitSeconds(o.seconds/float64(reps), s.openRates != nil)
	var setups, rates, p50s, heaps []float64
	var dbReads, clientReads, reads, inconsistent, latN, rateN uint64
	streams := []*stream{s.closed}
	for i := 0; i < reps; i++ {
		d, err := s.setup(ctx, workDir(o, s.name), nil)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", s.name, err)
		}
		ps := s.runPhases(ctx, o.seed+int64(i)<<32, ph, nil)
		if err := s.verify(ps); err != nil {
			res.fail(err)
		}
		s.topo.close()
		res.count(ps)
		res.notePhase(fmt.Sprintf("rep%d.closed.reader", i), ps.side, opRead)
		res.notePhase(fmt.Sprintf("rep%d.open", i), ps.open, opRead)

		// Latency is service time in edge_hit's closed loop (the caller
		// is the client: there is no queue to wait in) and time from the
		// due instant in the open-loop phase of the other two; the
		// offload ratio is taken over the same phase.
		lat, offload := ps.closed.latency(opRead), ps.delta
		if ps.open != nil {
			lat, offload = ps.open.latency(opRead), ps.openDelta
		}
		setups = append(setups, d.Seconds())
		rates = append(rates, ps.closed.perSecond())
		p50s = append(p50s, lat.quantile(0.5)/1e3)
		heaps = append(heaps, ps.heapMB)
		latN, rateN = latN+lat.n, rateN+ps.closed.okTotal()
		dbReads, clientReads = dbReads+offload.db.SingleGets, clientReads+offload.client.Reads
		ps.each(func(p *phaseResult) {
			reads += p.ok[opRead] + p.ok[opScan]
			inconsistent += p.inconsistent
		})
		streams = append(streams, ps.schedules...)
	}
	res.Health.OpStreamHash = fmt.Sprintf("%016x", hashStreams(streams...))

	res.put("setup_s", "s", median(setups), uint64(reps))
	res.put("txn_per_s", "1/s", median(rates), rateN)
	res.put("read_p50_us", "us", median(p50s), latN)
	res.put("live_heap_mb", "MB", median(heaps), uint64(reps))
	res.put("cache_served_ratio", "ratio", 1-ratio(dbReads, clientReads), clientReads)
	res.put("consistent_ratio", "ratio", 1-ratio(inconsistent, reads), reads)
	return nil
}

// runTraced is the per-layer pass: a short untraced closed-loop pass on
// the production topology (the base of trace_overhead_ratio and of the
// process-wide alloc count), then the traced topology with both seams
// interposed, then the single-goroutine probes.
func (s *sockWorkload) runTraced(ctx context.Context, o *options, res *result) error {
	quarter := splitSeconds(o.seconds/2, true) // closed and open get seconds/4 each

	if _, err := s.setup(ctx, workDir(o, s.name), nil); err != nil {
		return fmt.Errorf("%s set-up: %w", s.name, err)
	}
	base := s.runPhases(ctx, o.seed, phases{closed: quarter.closed}, nil)
	err := s.verify(base)
	s.topo.close()
	if err != nil {
		res.fail(fmt.Errorf("untraced base pass: %w", err))
	}
	res.count(base)

	tr := newTracer()
	if _, err = s.setup(ctx, workDir(o, s.name), tr); err != nil {
		return fmt.Errorf("%s traced set-up: %w", s.name, err)
	}
	defer func() { s.topo.close() }()
	tr.reset() // the edge seam recorded the warm-up
	ps := s.runPhases(ctx, o.seed, quarter, tr)
	if err := s.verify(ps); err != nil {
		res.fail(err)
	}
	res.count(ps)
	res.Health.OpStreamHash = fmt.Sprintf("%016x", hashStreams(append([]*stream{s.closed}, ps.schedules...)...))
	res.notePhase("closed.reader", ps.side, opRead)
	res.notePhase("open", ps.open, opRead)
	s.emitLayers(res, base, ps, tr)
	if o.traceOut != "" {
		if err := tr.dump(o.traceOut); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return s.probes(ctx, o, res)
}

// emitLayers turns the traced pass's counters (C) and spans (S) into
// the per-layer rows; base is the untraced pass it is compared with.
// README.md maps each row to the end-to-end metric it should move.
func (s *sockWorkload) emitLayers(res *result, base, ps *pass, tr *tracer) {
	var ops, reads, updates, aborts, closureCalls, inconsistent uint64
	ps.each(func(p *phaseResult) {
		ops += p.okTotal()
		reads += p.ok[opRead] + p.ok[opScan]
		updates += p.ok[opUpdate]
		aborts += p.aborts
		closureCalls += p.closureCalls
		inconsistent += p.inconsistent
	})
	per := func(n uint64, den uint64, scale float64) float64 { return scale * ratio(n, den) }
	us := func(ns float64) float64 { return ns / 1e3 }

	// The latency phase: open loop where the workload has one.
	lp := ps.closed
	if ps.open != nil {
		lp = ps.open
	}
	res.put("trace_overhead_ratio", "ratio", base.closed.perSecond()/ps.closed.perSecond(), ps.closed.okTotal())
	res.put("tcache.allocs_per_txn", "count", ratio(base.delta.mallocs, base.closed.okTotal()), base.closed.okTotal())
	rd, sc, up := lp.latency(opRead), lp.latency(opScan), lp.latency(opUpdate)
	res.put("tcache.read_txn_p99_us", "us", us(rd.p99()), rd.n)
	res.put("tcache.scan_txn_p50_us", "us", us(sc.quantile(0.5)), sc.n)
	res.put("tcache.update_p50_us", "us", us(up.quantile(0.5)), up.n)
	res.put("tcache.update_p99_us", "us", us(up.p99()), up.n)
	if updates > 0 {
		res.put("tcache.update_retries_per_commit", "count", float64(closureCalls)/float64(updates)-1, updates)
	}

	sum := tr.summarize()
	roots, rootNs := sum.sum(spanKind.isRoot)
	clients, clientNs := sum.sum(spanKind.isClient)
	edges, edgeNs := sum.sum(spanKind.isEdge)
	res.put("trace.root_spans", "count", float64(roots), 0)
	res.put("trace.client_spans", "count", float64(clients), 0)
	res.put("trace.edge_spans", "count", float64(edges), 0)
	res.put("trace.spans_dropped", "count", float64(sum.dropped), 0)
	if roots > 0 {
		res.put("core.self_us_per_txn", "us", us(float64(rootNs-clientNs)/float64(roots)), roots)
		res.put("cluster.calls_per_txn", "count", float64(clients)/float64(roots), roots)
		res.put("transport.edge_backend_us_per_txn", "us", us(float64(edgeNs)/float64(roots)), roots)
	}
	res.put("cluster.call_us_p50", "us", us(sum.clientP.quantile(0.5)), sum.clientP.n)
	res.put("cluster.node_share_max", "ratio", ps.shareMax, ps.edgeSum.Reads)
	res.put("transport.inval_lag_p50_us", "us", us(tr.lagNs.quantile(0.5)), tr.lagNs.n)
	res.put("transport.inval_lag_p99_us", "us", us(tr.lagNs.p99()), tr.lagNs.n)

	c, e, d := ps.delta.client, ps.edgeSum, ps.delta.db
	res.put("core.client_hit_ratio", "ratio", ratio(c.Hits, c.Hits+c.Misses), c.Hits+c.Misses)
	res.put("core.edge_hit_ratio", "ratio", ratio(e.Hits, e.Hits+e.Misses), e.Hits+e.Misses)
	res.put("core.detected_per_ktxn", "count", per(c.Detected, ops, 1000), ops)
	res.put("core.retries_per_ktxn", "count", per(c.Retries, ops, 1000), ops)
	res.put("core.abort_ratio", "ratio", ratio(aborts, reads+aborts), reads+aborts)
	invals := c.InvalidationsApplied + c.InvalidationsStale + c.InvalidationsNoop
	res.put("core.invalidations_stale_ratio", "ratio", ratio(c.InvalidationsStale, invals), invals)
	res.put("core.observed_inconsistent_per_ktxn", "count", per(inconsistent, reads, 1000), reads)

	policyEvictions := func(m core.MetricsSnapshot) uint64 { return m.EvictionsLRU + m.EvictionsClock + m.EvictionsCost }
	res.put("evict.evictions_per_ktxn", "count", per(policyEvictions(c)+policyEvictions(e), ops, 1000), ops)
	res.put("evict.admission_rejects_per_ktxn", "count", per(c.AdmissionRejects+e.AdmissionRejects, ops, 1000), ops)
	cc := s.topo.client.Core()
	res.put("evict.resident_bytes_ratio", "ratio", ratio(cc.ResidentBytes(), cc.MaxBytes()), 0)

	res.put("db.backend_reads_per_txn", "count", ratio(d.SingleGets, reads), reads)
	res.put("db.conflicts_per_commit", "count", ratio(d.Conflicts, d.TxnsCommitted), d.TxnsCommitted)
	res.put("db.invalidations_sent_per_commit", "count", ratio(d.InvalidationsSent, d.TxnsCommitted), d.TxnsCommitted)
	res.put("db.repl_lag_end", "count", float64(s.topo.primary.Core().ReplStatusNow().Lag), 0)
	res.put("wal.fsyncs_per_commit", "count", ratio(d.WALFsyncs, d.WALRecords), d.WALRecords)
	res.put("wal.records_per_batch", "count", ratio(d.WALRecords, d.WALBatches), d.WALBatches)
	userBytes := d.TxnWrites * uint64(len(s.data.keys[0])+smallValueBytes)
	res.put("wal.bytes_per_user_byte", "ratio", ratio(d.WALBytes, userBytes), userBytes)

	if ps.open != nil {
		res.put("loadgen.lateness_p99_us", "us", us(ps.open.lateness.p99()), ps.open.lateness.n)
		res.put("loadgen.backlog_end", "count", float64(ps.open.backlogEnd), 0)
	}
}
