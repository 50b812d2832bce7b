// Command tcache-cli is a small client for tdbd and tcached.
//
// Usage:
//
//	tcache-cli -db 127.0.0.1:7070 set key value [key value ...]
//	tcache-cli -db 127.0.0.1:7070 get key
//	tcache-cli -cache 127.0.0.1:7071 read key [key ...]   # one read-only txn
//	tcache-cli -cache 127.0.0.1:7071 cget key             # plain cache read
//	tcache-cli -cache 127.0.0.1:7071 stats
//	tcache-cli -db 127.0.0.1:7070 ping                    # role + durability health
//	tcache-cli -db 127.0.0.1:7072 promote                 # standby → primary
//	tcache-cli -cache 127.0.0.1:7071 top                  # live per-second rates
//
// A tcached speaks the same backend protocol as a tdbd, so the -cache
// commands dial it with the one wire client (transport.DialDB, one
// connection): read is OpReadTxn, cget is OpGet, stats and top OpStats.
//
// With -cluster, read/cget/stats/top address a whole fleet of tcached
// nodes through the consistent-hash routing tier instead of one daemon:
//
//	tcache-cli -cluster edge1:7071,edge2:7071,edge3:7071 read key [key ...]
//	tcache-cli -cluster edge1:7071,edge2:7071,edge3:7071 stats
//	tcache-cli -cluster edge1:7071,edge2:7071,edge3:7071 top -interval 2s
//
// stats and ping take -json for machine-readable output (one JSON
// document on stdout; histograms are reported as count/p50/p95/p99/max
// in nanoseconds). top polls each node's OpStats and prints per-second
// deltas: op rate, hit ratio, warm/cold read p99 over the window (not
// since boot), and replication lag where the node reports one.
//
// Exit codes: 0 on success — including a read transaction that aborted
// cleanly, which is a correct outcome of the protocol and is reported
// on stdout; 1 on any usage, transport, or validation error, and for
// ping against an unhealthy node (so scripts can gate on durability).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tcache"
	"tcache/internal/cluster"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcache-cli:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	var (
		dbAddr    = flag.String("db", "127.0.0.1:7070", "tdbd address")
		cacheAddr = flag.String("cache", "127.0.0.1:7071", "tcached address")
		clusterFl = flag.String("cluster", "", "comma-separated tcached fleet (read/cget/stats/top route through the cluster tier instead of -cache)")
		jsonOut   = flag.Bool("json", false, "stats, ping: emit one JSON document instead of text")
		interval  = flag.Duration("interval", time.Second, "top: polling interval")
		count     = flag.Int("count", 0, "top: number of refreshes (0 = until interrupted)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return errors.New("usage: tcache-cli [flags] set|get|read|cget|stats|ping|top|promote ...")
	}
	// Flags may also follow the subcommand (`stats -json`, `top -interval
	// 2s`): the global FlagSet stops at the first positional arg, so each
	// flag-taking subcommand re-parses its tail, seeded from the globals.
	if args[0] == "top" {
		fs := flag.NewFlagSet("top", flag.ContinueOnError)
		ti := fs.Duration("interval", *interval, "polling interval")
		tc := fs.Int("count", *count, "number of refreshes (0 = until interrupted)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		addrs := cluster.SplitAddrs(*clusterFl)
		if len(addrs) == 0 {
			addrs = []string{*cacheAddr}
		}
		return runTop(ctx, addrs, *ti, *tc)
	}
	parseJSON := func(cmd string, rest []string) (bool, []string, error) {
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		j := fs.Bool("json", *jsonOut, "emit one JSON document instead of text")
		if err := fs.Parse(rest); err != nil {
			return false, nil, err
		}
		return *j, fs.Args(), nil
	}
	if addrs := cluster.SplitAddrs(*clusterFl); len(addrs) > 0 {
		switch cmd, rest := args[0], args[1:]; cmd {
		case "read", "cget", "stats":
			j, rest, err := parseJSON(cmd, rest)
			if err != nil {
				return err
			}
			return runCluster(ctx, addrs, cmd, rest, j)
		}
	}

	switch cmd, rest := args[0], args[1:]; cmd {
	case "set":
		if len(rest) == 0 || len(rest)%2 != 0 {
			return errors.New("set needs key value pairs")
		}
		remote, err := tcache.Dial(ctx, *dbAddr)
		if err != nil {
			return err
		}
		defer remote.Close()
		// One unified read-modify-write transaction: read each key (the
		// observed versions are validated at commit), then write it —
		// committed in a single round trip, conflicts retried.
		if err := remote.Update(ctx, func(tx *tcache.Tx) error {
			for i := 0; i < len(rest); i += 2 {
				if _, _, err := tx.Get(ctx, kv.Key(rest[i])); err != nil {
					return err
				}
				if err := tx.Set(kv.Key(rest[i]), kv.Value(rest[i+1])); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		fmt.Println("committed")
		return nil

	case "ping":
		// Role and durability health of a tdbd: "primary"
		// or "standby", plus the WAL's sticky fail-stop error if any.
		j, _, err := parseJSON(cmd, rest)
		if err != nil {
			return err
		}
		cli, err := transport.DialDB(ctx, *dbAddr, 1)
		if err != nil {
			return err
		}
		defer cli.Close()
		st, err := cli.Status(ctx)
		if err != nil {
			return err
		}
		if j {
			if err := emitJSON(map[string]any{
				"addr":       *dbAddr,
				"role":       st.Role,
				"counter":    st.Counter,
				"leader":     st.Leader,
				"repl_lag":   st.Lag,
				"healthy":    st.Healthy,
				"health_err": st.HealthErr,
			}); err != nil {
				return err
			}
			if !st.Healthy {
				return fmt.Errorf("node %s is unhealthy", *dbAddr)
			}
			return nil
		}
		fmt.Printf("role=%s counter=%d", st.Role, st.Counter)
		if st.Leader != "" {
			fmt.Printf(" leader=%s", st.Leader)
		}
		if st.Role == "primary" {
			fmt.Printf(" repl-lag=%d", st.Lag)
		}
		if st.Healthy {
			fmt.Printf(" healthy\n")
			return nil
		}
		fmt.Printf(" UNHEALTHY: %s\n", st.HealthErr)
		return fmt.Errorf("node %s is unhealthy", *dbAddr)

	case "promote":
		cli, err := transport.DialDB(ctx, *dbAddr, 1)
		if err != nil {
			return err
		}
		defer cli.Close()
		counter, err := cli.Promote(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("promoted: %s is primary at counter=%d\n", *dbAddr, counter)
		return nil

	case "get":
		if len(rest) != 1 {
			return errors.New("get needs exactly one key")
		}
		cli, err := transport.DialDB(ctx, *dbAddr, 1)
		if err != nil {
			return err
		}
		defer cli.Close()
		item, ok, err := cli.ReadItem(ctx, kv.Key(rest[0]))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s: not found", rest[0])
		}
		fmt.Printf("%s = %q @%s deps=%s\n", rest[0], item.Value, item.Version, item.Deps)
		return nil

	case "read":
		if len(rest) == 0 {
			return errors.New("read needs at least one key")
		}
		cli, err := transport.DialDB(ctx, *cacheAddr, 1)
		if err != nil {
			return err
		}
		defer cli.Close()
		keys := make([]kv.Key, len(rest))
		for i, k := range rest {
			keys[i] = kv.Key(k)
		}
		// One wire round trip for the whole transaction (OpReadTxn).
		vals, err := cli.ReadTxn(ctx, keys)
		if errors.Is(err, transport.ErrAborted) {
			fmt.Println("transaction aborted: inconsistency detected — retry")
			return nil
		}
		if err != nil {
			return err
		}
		for i, k := range rest {
			fmt.Printf("%s = %q\n", k, vals[i])
		}
		fmt.Println("transaction committed")
		return nil

	case "cget":
		if len(rest) != 1 {
			return errors.New("cget needs exactly one key")
		}
		cli, err := transport.DialDB(ctx, *cacheAddr, 1)
		if err != nil {
			return err
		}
		defer cli.Close()
		item, ok, err := cli.ReadItem(ctx, kv.Key(rest[0]))
		if err != nil {
			return err
		}
		if !ok {
			return transport.ErrNotFound
		}
		fmt.Printf("%s = %q\n", rest[0], item.Value)
		return nil

	case "stats":
		j, _, err := parseJSON(cmd, rest)
		if err != nil {
			return err
		}
		cli, err := transport.DialDB(ctx, *cacheAddr, 1)
		if err != nil {
			return err
		}
		defer cli.Close()
		stats, err := cli.Stats(ctx)
		if err != nil {
			return err
		}
		if j {
			return emitJSON(map[string]any{"addr": *cacheAddr, "stats": statsJSON(stats)})
		}
		printStats(stats, "")
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runCluster serves the read-side commands through a cluster tier.
func runCluster(ctx context.Context, addrs []string, cmd string, rest []string, jsonOut bool) error {
	cc, err := tcache.DialCluster(ctx, addrs)
	if err != nil {
		return err
	}
	defer cc.Close()

	switch cmd {
	case "read":
		if len(rest) == 0 {
			return errors.New("read needs at least one key")
		}
		keys := make([]tcache.Key, len(rest))
		for i, k := range rest {
			keys[i] = tcache.Key(k)
		}
		var vals []tcache.Value
		err := cc.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
			var err error
			vals, err = tx.GetMulti(ctx, keys...)
			return err
		})
		if errors.Is(err, tcache.ErrTxnAborted) {
			fmt.Println("transaction aborted: inconsistency detected — retry")
			return nil
		}
		if err != nil {
			return err
		}
		for i, k := range rest {
			fmt.Printf("%s = %q\n", k, vals[i])
		}
		fmt.Println("transaction committed")
		return nil

	case "cget":
		if len(rest) != 1 {
			return errors.New("cget needs exactly one key")
		}
		val, err := cc.Get(ctx, tcache.Key(rest[0]))
		if err != nil {
			return err
		}
		fmt.Printf("%s = %q\n", rest[0], val)
		return nil

	case "stats":
		st := cc.Stats(ctx)
		if jsonOut {
			nodes := make([]map[string]any, len(st.Nodes))
			for i, ns := range st.Nodes {
				n := map[string]any{"addr": ns.Addr, "state": ns.State}
				if ns.Err != "" {
					n["err"] = ns.Err
				}
				if ns.Err == "" {
					n["stats"] = statsJSON(ns.Stats)
				}
				nodes[i] = n
			}
			return emitJSON(map[string]any{
				"local":     st.Local,
				"nodes":     nodes,
				"aggregate": statsJSON(st.Aggregate),
			})
		}
		fmt.Printf("local cache: reads %d, hits %d, misses %d\n",
			st.Local.Reads, st.Local.Hits, st.Local.Misses)
		for _, ns := range st.Nodes {
			fmt.Printf("node %s [%s]", ns.Addr, ns.State)
			if ns.Err != "" {
				fmt.Printf(" stats error: %s", ns.Err)
			}
			fmt.Println()
			printStats(ns.Stats, "  ")
		}
		fmt.Println("aggregate:")
		printStats(st.Aggregate, "  ")
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// printStats prints a snapshot one metric per line, sorted by name: a
// counter or gauge as "name value", a histogram as "name count=N p50=…
// p99=… max=…".
func printStats(s telemetry.Snapshot, indent string) {
	var lines []string
	for _, m := range []map[string]uint64{s.Counters, s.Gauges} {
		for name, v := range m {
			lines = append(lines, fmt.Sprintf("%s%-28s %d", indent, name, v))
		}
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s%-28s count=%d p50=%d p99=%d max=%d", indent, name, h.Count(), h.P50(), h.P99(), h.Max()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// emitJSON is the one encoder behind every -json mode, so all commands
// agree on formatting (indented, sorted keys, one document per run).
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// latJSON is a histogram summarized for JSON output; all values in
// nanoseconds.
type latJSON struct {
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50_ns"`
	P95   uint64 `json:"p95_ns"`
	P99   uint64 `json:"p99_ns"`
	Max   uint64 `json:"max_ns"`
}

// statsJSON is a snapshot's JSON shape: counters and gauges stay
// numeric, histograms become latency summaries.
func statsJSON(snap telemetry.Snapshot) map[string]any {
	hists := make(map[string]latJSON, len(snap.Histograms))
	for name, h := range snap.Histograms {
		hists[name] = latJSON{Count: h.Count(), P50: h.P50(), P95: h.P95(), P99: h.P99(), Max: h.Max()}
	}
	return map[string]any{
		"counters":   snap.Counters,
		"gauges":     snap.Gauges,
		"histograms": hists,
	}
}

// histDelta returns the histogram of only the samples recorded between
// two snapshots of the same monotone histogram: bucket counts and the
// sum subtract exactly, so window quantiles come straight out of the
// difference.
func histDelta(cur, prev telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	var d telemetry.HistogramSnapshot
	for i := range cur.Counts {
		d.Counts[i] = cur.Counts[i] - prev.Counts[i]
	}
	d.Sum = cur.Sum - prev.Sum
	return d
}

// topNode is one fleet member's polling state for the top command.
type topNode struct {
	addr string
	cli  *transport.DBClient
	prev telemetry.Snapshot
	ok   bool // prev holds a real sample (deltas are meaningful)
}

// poll refreshes the node's snapshot, redialing a node that was down.
// It returns the previous and current snapshots when a delta window is
// available.
func (n *topNode) poll(ctx context.Context) (prev, cur telemetry.Snapshot, haveDelta bool, err error) {
	if n.cli == nil {
		cli, derr := transport.DialDB(ctx, n.addr, 1)
		if derr != nil {
			n.ok = false
			return prev, cur, false, derr
		}
		n.cli = cli
	}
	cur, serr := n.cli.Stats(ctx)
	if serr != nil {
		// Drop the connection so the next tick redials; a restart also
		// resets the node's counters, so the stale baseline must go too.
		n.cli.Close()
		n.cli = nil
		n.ok = false
		return prev, cur, false, serr
	}
	prev, haveDelta = n.prev, n.ok
	n.prev, n.ok = cur, true
	return prev, cur, haveDelta, nil
}

// runTop polls each node's OpStats on a fixed interval and prints
// per-second deltas: a terminal-friendly fleet dashboard. Rates and
// quantiles describe the window between two polls, not the node's
// lifetime, so a latency regression shows up immediately instead of
// being averaged into hours of history.
func runTop(ctx context.Context, addrs []string, interval time.Duration, count int) error {
	if interval <= 0 {
		return errors.New("top: -interval must be positive")
	}
	nodes := make([]*topNode, len(addrs))
	for i, a := range addrs {
		nodes[i] = &topNode{addr: a}
	}
	// Take the baseline sample immediately so the first printed window
	// is real data after one interval, not zeros.
	for _, n := range nodes {
		_, _, _, _ = n.poll(ctx) //nolint:dogsled // baseline only
	}

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	secs := interval.Seconds()
	for i := 0; count == 0 || i < count; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		fmt.Printf("%-21s %8s %6s %10s %10s %9s %6s\n",
			time.Now().Format("15:04:05"), "OPS/S", "HIT%", "P99-WARM", "P99-COLD", "MEM", "LAG")
		for _, n := range nodes {
			prev, cur, haveDelta, err := n.poll(ctx)
			if err != nil {
				fmt.Printf("%-21s down: %v\n", n.addr, err)
				continue
			}
			if !haveDelta {
				fmt.Printf("%-21s (baseline)\n", n.addr)
				continue
			}
			dReads := cur.Counters["reads"] - prev.Counters["reads"]
			dHits := cur.Counters["hits"] - prev.Counters["hits"]
			hit := "-"
			if dReads > 0 {
				hit = fmt.Sprintf("%.1f", 100*float64(dHits)/float64(dReads))
			}
			warm := histDelta(cur.Histograms["read_warm_ns"], prev.Histograms["read_warm_ns"])
			cold := histDelta(cur.Histograms["read_cold_ns"], prev.Histograms["read_cold_ns"])
			lag := "-"
			if v, present := cur.Gauges["repl_lag"]; present {
				lag = fmt.Sprintf("%d", v)
			}
			mem := "-"
			if v, present := cur.Gauges["cache_resident_bytes"]; present {
				mem = humanBytes(v)
				if budget, bounded := cur.Gauges["cache_max_bytes"]; bounded && budget > 0 {
					mem += fmt.Sprintf("/%.0f%%", 100*float64(v)/float64(budget))
				}
			}
			fmt.Printf("%-21s %8.0f %6s %10s %10s %9s %6s\n",
				n.addr, float64(dReads)/secs, hit,
				topQuantile(&warm), topQuantile(&cold), mem, lag)
		}
	}
	return nil
}

// humanBytes renders a byte count with a binary-unit suffix, compact
// enough for the MEM column (e.g. "1.5M" for 1.5 MiB).
func humanBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	v, suffix := float64(n), ""
	for _, s := range []string{"K", "M", "G", "T"} {
		v /= unit
		suffix = s
		if v < unit {
			break
		}
	}
	return fmt.Sprintf("%.1f%s", v, suffix)
}

// topQuantile renders a window histogram's p99 as a duration, or "-"
// when the window recorded nothing.
func topQuantile(h *telemetry.HistogramSnapshot) string {
	if h.Count() == 0 {
		return "-"
	}
	return time.Duration(h.P99()).String()
}
