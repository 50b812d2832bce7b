package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// worker is one load-generator goroutine's private state: nothing in it
// is shared while a phase runs, and the phase merges its workers when
// they have all returned.
type worker struct {
	ctx context.Context
	ot  *opTrace // nil in an untraced pass

	lat    [numOpKinds]*hist
	ok     [numOpKinds]uint64
	failed [numOpKinds]uint64
	// aborts counts read txns that surfaced ErrTxnAborted and were
	// retried by the caller; closureCalls counts Update closure runs
	// (commits + conflict retries); inconsistent counts committed read
	// txns the equal-counters oracle caught; unknown counts updates
	// whose outcome the caller cannot know (error after send).
	aborts, closureCalls, inconsistent, unknown uint64
	windows                                     []uint32
	firstErr                                    error
	scratch                                     []byte
}

func (w *worker) done(kind opKind, latNs int64, err error) {
	if err != nil {
		w.failed[kind]++
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.ok[kind]++
	if w.lat[kind] == nil {
		w.lat[kind] = newHist()
	}
	w.lat[kind].record(latNs)
}

// execFn performs one operation and checks its output.
type execFn func(w *worker, o op) error

// phaseResult is one timed phase, workers merged.
type phaseResult struct {
	elapsed                                     time.Duration
	lat                                         [numOpKinds]*hist
	ok, failed                                  [numOpKinds]uint64
	aborts, closureCalls, inconsistent, unknown uint64
	windows                                     []uint64 // closed loop: completions per throughputWindow
	firstErr                                    error

	// Open loop only: how late the pacer dispatched each op, and the
	// ops due but unfinished when the last one was dispatched.
	lateness   *hist
	backlogEnd int
}

func (p *phaseResult) absorb(w *worker) {
	for k := range w.lat {
		if w.lat[k] != nil {
			if p.lat[k] == nil {
				p.lat[k] = newHist()
			}
			p.lat[k].merge(w.lat[k])
		}
		p.ok[k] += w.ok[k]
		p.failed[k] += w.failed[k]
	}
	p.aborts += w.aborts
	p.closureCalls += w.closureCalls
	p.inconsistent += w.inconsistent
	p.unknown += w.unknown
	for i, c := range w.windows {
		for len(p.windows) <= i {
			p.windows = append(p.windows, 0)
		}
		p.windows[i] += uint64(c)
	}
	if p.firstErr == nil {
		p.firstErr = w.firstErr
	}
}

func (p *phaseResult) okTotal() (n uint64) {
	for _, c := range p.ok {
		n += c
	}
	return n
}

func (p *phaseResult) failedTotal() (n uint64) {
	for _, c := range p.failed {
		n += c
	}
	return n
}

// latency returns kind's recorder, empty rather than nil.
func (p *phaseResult) latency(kind opKind) *hist {
	if p == nil || p.lat[kind] == nil {
		return newHist()
	}
	return p.lat[kind]
}

// perSecond is the phase's throughput: the median over its full
// throughput windows, or plain completions ÷ elapsed when the phase is
// too short to have three of them.
func (p *phaseResult) perSecond() float64 {
	full := int(p.elapsed / throughputWindow)
	if full > len(p.windows) {
		full = len(p.windows)
	}
	if full < 3 {
		return float64(p.okTotal()) / p.elapsed.Seconds()
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(p.windows[i]) / throughputWindow.Seconds()
	}
	return median(rates)
}

// loadGen builds workers for one topology and pass.
type loadGen struct {
	ctx context.Context
	tr  *tracer // nil = untraced
}

// newWorker builds one of a phase's n workers.
func (g *loadGen) newWorker(n int) *worker {
	w := &worker{ctx: g.ctx}
	if g.tr != nil {
		w.ctx, w.ot = g.tr.workerTrace(g.ctx, n)
	}
	return w
}

// run executes o on w, times it from fromNs (ns on the phase clock:
// the call time in a closed loop, the due time in an open one), and
// records the root span in a traced pass — root span kinds are
// numbered like op kinds.
func (w *worker) run(exec execFn, o op, phaseStart time.Time, fromNs int64) (endNs int64) {
	var t0 int64
	if w.ot != nil {
		w.ot.txn++
		t0 = w.ot.tr.now()
	}
	err := exec(w, o)
	endNs = int64(time.Since(phaseStart))
	if w.ot != nil {
		w.ot.buf.add(span{txn: w.ot.txn, kind: spanKind(o.kind), start: t0, end: w.ot.tr.now()})
	}
	w.done(o.kind, endNs-fromNs, err)
	return endNs
}

// closedLoop runs n workers that each issue their next op as soon as
// the previous one returns, consuming s in order from cursor (shared
// across phases, wrapping at the end of s). It stops after dur, or —
// for warm-up — once maxOps ops have been claimed, whichever is set.
func (g *loadGen) closedLoop(n int, s *stream, cursor *atomic.Uint64, dur time.Duration, maxOps uint64, exec execFn) *phaseResult {
	workers := make([]*worker, n)
	for i := range workers {
		workers[i] = g.newWorker(n)
	}
	limit := ^uint64(0)
	if maxOps > 0 {
		limit = cursor.Load() + maxOps
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := cursor.Add(1) - 1
				if i >= limit {
					return
				}
				t0 := int64(time.Since(start))
				if dur > 0 && t0 >= int64(dur) {
					return
				}
				end := w.run(exec, s.ops[i%uint64(len(s.ops))], start, t0)
				slot := int(end / int64(throughputWindow))
				for len(w.windows) <= slot {
					w.windows = append(w.windows, 0)
				}
				w.windows[slot]++
			}
		}(w)
	}
	wg.Wait()
	p := &phaseResult{elapsed: time.Since(start)}
	if dur > 0 {
		// Ops that started before the deadline may finish after it; the
		// windows past it are partial and perSecond ignores them.
		p.elapsed = dur
	}
	for _, w := range workers {
		p.absorb(w)
	}
	return p
}

// openLoop dispatches s.ops[i] at s.due[i] whatever the system is
// doing, and times each op from its due time, so a stall is charged to
// every op that had to wait behind it (no coordinated omission).
func (g *loadGen) openLoop(s *stream, dur time.Duration, exec execFn) *phaseResult {
	p := &phaseResult{lateness: newHist(), elapsed: dur}
	workers := make([]*worker, openWorkers)
	// Every op of the phase fits, so the pacer never blocks on the
	// system under test.
	ch := make(chan int, len(s.ops))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		workers[i] = g.newWorker(openWorkers)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := range ch {
				w.run(exec, s.ops[i], start, s.due[i])
				inflight.Add(-1)
			}
		}(workers[i])
	}
	// The pacer gets a goroutine of its own because it pins its thread.
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pinPacerThread()
		for i, due := range s.due {
			sleepUntil(start, due)
			p.lateness.record(int64(time.Since(start)) - due)
			inflight.Add(1)
			ch <- i
		}
	}()
	<-paced
	p.backlogEnd = int(inflight.Load())
	close(ch)
	wg.Wait()
	for _, w := range workers {
		p.absorb(w)
	}
	return p
}

// pinPacerThread locks the calling goroutine to its OS thread for good
// (the thread ends with the goroutine) and drops the thread's timer
// slack from the default 50 us to 1 us.
//
// Why not time.Sleep: an idle Go process waits in epoll, whose timeout
// is whole milliseconds, so a 4000/s schedule paced by Go timers goes
// out in 1 ms bursts. Why not a yielding spin: the spinner always finds
// itself runnable before its P polls the network, which in effect takes
// one of two CPUs away from the system under test (measured: rmw_mix's
// closed-loop commits fell from 2260/s to 860/s). A thread asleep in
// nanosleep costs nothing and wakes within microseconds.
func pinPacerThread() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort: failure only means coarser pacing, which lateness reports
}

// sleepUntil returns once due ns have passed since start.
func sleepUntil(start time.Time, due int64) {
	for {
		wait := due - int64(time.Since(start))
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait)
		_ = syscall.Nanosleep(&ts, nil) // EINTR or early return: the loop re-checks the clock
	}
}

// valid applies the run-health rule to an open-loop phase: the backlog
// must not have grown (a handful of ops in flight is normal; a queue is
// not), and the generator's own lateness must stay below the latency it
// is measuring. The rule reads lateness at p90, not p99: with the
// generator inside the process, its p99 measures the Go GC (a mark
// phase holds one of two CPUs for about a millisecond), which the
// system under test suffers all the same.
func (p *phaseResult) valid(kind opKind) bool {
	return p.backlogEnd <= openWorkers && p.lateness.quantile(0.9) <= p.latency(kind).quantile(0.5)
}
