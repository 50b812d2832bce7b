// Command bench is this repository's one benchmark harness: it builds
// the real deployment in-process over loopback sockets, drives one of
// four workloads from a seeded op stream, checks the outputs, and
// prints every metric by name and unit. BENCHMARK.json (at the repo
// root) declares the workloads, the metrics and their regression
// bounds; README.md in this directory explains each choice.
//
//	go run ./bench -workload edge_miss -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload rmw_mix -trace 1 -trace-out spans.json
//	go run ./bench -compare a.jsonl b.jsonl
//
// -trace 0 is the untraced pass that yields the end-to-end metrics;
// -trace 1 is the traced pass that yields the per-layer table. The
// last line of standard output is the machine-readable result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	workdir  string
	specPath string
	out      string
	traceOut string
}

// metric is one reported number. N is the sample count behind it where
// that is meaningful (latency quantiles, medians over windows).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n,omitempty"`
}

// phaseHealth is the run-health verdict on one open-loop phase.
type phaseHealth struct {
	Phase         string  `json:"phase"`
	LatenessP50Us float64 `json:"lateness_p50_us"`
	LatenessP90Us float64 `json:"lateness_p90_us"`
	LatenessP99Us float64 `json:"lateness_p99_us"`
	LatencyP50Us  float64 `json:"latency_p50_us"`
	BacklogEnd    int     `json:"backlog_end"`
	Invalid       bool    `json:"invalid"`
}

// health says what the numbers were measured on, so a reader can tell
// whether two results are comparable at all.
type health struct {
	GitSHA       string        `json:"git_sha"`
	GoVersion    string        `json:"go_version"`
	NProc        int           `json:"nproc"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Fsync        string        `json:"fsync"`
	WALDirFS     string        `json:"wal_dir_fs"`
	Link         string        `json:"link"`
	OpStreamHash string        `json:"op_stream_hash"`
	Phases       []phaseHealth `json:"phases,omitempty"`
}

// result is one run: one workload, one seed, one pass.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Health    health            `json:"health"`
	Notes     []string          `json:"notes,omitempty"`

	order []string
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// put reports a metric. Reporting a name twice or with a malformed name
// is a harness bug and fails the run.
func (r *result) put(name, unit string, value float64, n uint64) {
	if _, dup := r.Metrics[name]; dup || !metricNameRE.MatchString(name) {
		r.fail(fmt.Errorf("harness: metric %q reported twice or misnamed", name))
		return
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
	r.order = append(r.order, name)
}

// fail records a failed output check: the run still reports, but as
// incorrect and with a non-zero exit.
func (r *result) fail(err error) {
	r.Correct = false
	r.Notes = append(r.Notes, err.Error())
}

func (r *result) count(ps *pass) {
	ps.each(func(p *phaseResult) {
		r.Attempted += p.okTotal() + p.failedTotal()
		r.Failed += p.failedTotal()
	})
}

func newResult(o *options) *result {
	return &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Correct: true, Metrics: make(map[string]metric),
		Health: health{
			GitSHA:     gitSHA(),
			GoVersion:  runtime.Version(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Fsync:      "on: primary and standby fsync every commit batch before acknowledging",
			WALDirFS:   fsName(o.workdir),
			Link:       "loopback: every hop is a 127.0.0.1 TCP socket inside one process; no real network",
		},
	}
}

func gitSHA() string {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					sha += "+dirty"
				}
			}
		}
	}
	return sha
}

// fsName names the filesystem the WALs are written to: fsync on tmpfs
// costs nothing, and a result measured there says nothing about commits.
func fsName(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func (r *result) notePhase(name string, p *phaseResult, kind opKind) {
	if p == nil {
		return
	}
	r.Health.Phases = append(r.Health.Phases, phaseHealth{
		Phase:         name,
		LatenessP50Us: p.lateness.quantile(0.5) / 1e3,
		LatenessP90Us: p.lateness.quantile(0.9) / 1e3,
		LatenessP99Us: p.lateness.p99() / 1e3,
		LatencyP50Us:  p.latency(kind).quantile(0.5) / 1e3,
		BacklogEnd:    p.backlogEnd,
		Invalid:       !p.valid(kind),
	})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (declared in BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the op stream and the data set")
	fs.Float64Var(&o.seconds, "seconds", 0, "seconds measured (default: run_seconds from BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke mode: one set-up, short probes, small edge_miss data set (numbers are not comparable)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for WALs and other scratch files")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&o.out, "out", "", "append the full result (metrics, sample counts, run health) to this JSON-lines file")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the kept spans to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if !spec.hasWorkload(o.workload) || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "bench: -workload must be one of %v and -trace 0 or 1\n", spec.workloadNames())
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res := newResult(&o)
	if o.workload == "paper_sim" {
		err = runPaperSim(ctx, &o, res)
	} else {
		err = runSocket(ctx, &o, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.trace == 1 {
		// A per-layer metric reads 0 on a workload that leaves its layer
		// idle or does not run its probe.
		for _, m := range spec.PerLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.put(m.Name, m.Unit, 0, 0)
			}
		}
	}
	if err := spec.checkEmitted(res); err != nil {
		res.fail(err)
	}
	if res.Failed > 0 {
		res.fail(fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	report(stdout, spec, res)
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The contract line: last on stdout, exactly these four keys.
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, contractMetrics(res)})
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// contractMetrics strips the sample counts: the contract line carries
// value and unit only.
func contractMetrics(r *result) map[string]metric {
	out := make(map[string]metric, len(r.Metrics))
	for k, m := range r.Metrics {
		out[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// report prints the human-readable table.
func report(w io.Writer, spec *benchSpec, r *result) {
	h := r.Health
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "run health: git %s, %s, nproc %d, GOMAXPROCS %d, wal fs %s, op stream %s\n",
		h.GitSHA, h.GoVersion, h.NProc, h.GOMAXPROCS, h.WALDirFS, h.OpStreamHash)
	fmt.Fprintf(w, "  fsync %s\n  link  %s\n", h.Fsync, h.Link)
	for _, p := range h.Phases {
		verdict := "ok"
		if p.Invalid {
			verdict = "INVALID (generator late or backlog growing: do not use this phase's latencies)"
		}
		fmt.Fprintf(w, "  open-loop %s: generator lateness p50 %.1f / p90 %.1f / p99 %.1f us, latency p50 %.1f us, backlog at end %d: %s\n",
			p.Phase, p.LatenessP50Us, p.LatenessP90Us, p.LatenessP99Us, p.LatencyP50Us, p.BacklogEnd, verdict)
	}
	names := append([]string(nil), r.order...)
	if r.Trace == 1 {
		sort.Strings(names)
	}
	for _, name := range names {
		m := r.Metrics[name]
		bound := ""
		if s, ok := spec.endToEnd(name); ok {
			bound = fmt.Sprintf("  (%s is better, bound %g)", s.Better, s.Bound)
		}
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "%-44s %16.4f %-6s%s%s\n", name, m.Value, m.Unit, samples, bound)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
