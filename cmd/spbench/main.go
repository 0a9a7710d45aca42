// Command spbench regenerates the paper's tables and the quantitative
// claims of its theorems as text tables (the experiment index lives in
// DESIGN.md §3; results are recorded in EXPERIMENTS.md), plus the
// trace-driven backend benchmark over the recorded workload shapes.
//
// Usage:
//
//	spbench [-table fig3|t5|c6|t10|s7|trace|concurrent|ingest|all] [-quick] [-json]
//
// -table trace records one binary event trace per workload shape
// (repro/internal/workload.Scenarios) and replays it through every
// registered backend, reporting ns/event, events/sec, and the trace's
// peak logical parallelism. -table ingest streams recorded traces into
// an in-process sptraced server at 1, 4, and 16 concurrent streams.
// -json emits ONLY that benchmark, as a JSON document suitable for
// committing as BENCH_<host>.json so successive PRs accumulate a perf
// trajectory.
//
// On single-CPU hosts the Theorem 10 experiment measures overhead scaling
// (steals, retries, lock traffic) rather than wall-clock speedup.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/sp"
	"repro/sp/metrics"
	"repro/sp/trace"
)

// benchMetrics is the instrumentation excerpt embedded in every -json
// benchmark row: backend-internal accounting from the sp/metrics
// registry the measured monitors record into. Ratios are computed over
// the registry's whole accumulation (all repetitions of the row), so
// they are invariant to the repetition count.
type benchMetrics struct {
	// DrainsPerEvent is pending-queue drains (one shared insertion-lock
	// acquisition each) per monitored event — sp-hybrid's amortization
	// made visible; omitted for backends without a batched global tier.
	DrainsPerEvent float64 `json:"drainsPerEvent,omitempty"`
	// MaxShardImbalance is max/mean of per-shard shadow-memory access
	// counts (1 = perfectly balanced address hashing).
	MaxShardImbalance float64 `json:"maxShardImbalance,omitempty"`
	// PendingHighwater is the deepest the pending structural-event
	// queue grew before a drain.
	PendingHighwater float64 `json:"pendingHighwater,omitempty"`
}

// benchMetricsFrom distills a registry snapshot into the row excerpt,
// returning nil when the snapshot carries none of the fields (e.g. a
// backend with no instrumented internals).
func benchMetricsFrom(snap metrics.Snapshot) *benchMetrics {
	bm := &benchMetrics{}
	if ev := snap.Sum("sp_monitor_events_total"); ev > 0 {
		bm.DrainsPerEvent = snap.Sum("sp_om_drains_total") / ev
	}
	if v, ok := snap.Value("sp_shadow_shard_imbalance"); ok {
		bm.MaxShardImbalance = v
	}
	if v, ok := snap.Value("sp_om_pending_highwater"); ok {
		bm.PendingHighwater = v
	}
	if *bm == (benchMetrics{}) {
		return nil
	}
	return bm
}

var (
	quick          = flag.Bool("quick", false, "smaller workloads, fewer repetitions")
	backendFlag    = flag.String("backend", "all", "restrict the Corollary 6 and trace tables to one registered backend")
	jsonFlag       = flag.Bool("json", false, "emit the selected benchmark (-table trace or concurrent) as JSON")
	goroutinesFlag = flag.String("goroutines", "", "comma-separated goroutine counts for -table concurrent (default: powers of two up to max(4, NumCPU), plus NumCPU)")
)

func main() {
	table := flag.String("table", "all", "which experiment: fig3|t5|c6|t10|s7|trace|concurrent|ingest|all")
	flag.Parse()
	if _, ok := sp.Lookup(*backendFlag); !ok && *backendFlag != "all" {
		fmt.Fprintf(os.Stderr, "unknown backend %q (available: %v)\n", *backendFlag, sp.BackendNames())
		os.Exit(2)
	}

	if *jsonFlag {
		switch *table {
		case "concurrent":
			concurrentBench(true)
		case "ingest":
			ingestBench(true)
		default:
			traceBench(true)
		}
		return
	}
	fmt.Printf("spbench: GOMAXPROCS=%d NumCPU=%d quick=%v\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *quick)
	switch *table {
	case "fig3":
		fig3()
	case "t5":
		theorem5()
	case "c6":
		corollary6()
	case "t10":
		theorem10()
	case "s7":
		section7()
	case "trace":
		traceBench(false)
	case "concurrent":
		concurrentBench(false)
	case "ingest":
		ingestBench(false)
	case "all":
		fig3()
		theorem5()
		corollary6()
		theorem10()
		section7()
		traceBench(false)
		concurrentBench(false)
		ingestBench(false)
	default:
		fmt.Fprintln(os.Stderr, "unknown table:", *table)
		os.Exit(2)
	}
}

// selectedBackends is every registered backend, or the one -backend
// names.
func selectedBackends() []string {
	if *backendFlag == "all" {
		return sp.BackendNames()
	}
	return []string{*backendFlag}
}

// maintain replays tr serially through a fresh monitor on backend with
// race detection off, so only SP maintenance runs.
func maintain(tr *repro.Tree, backend string, opts ...sp.Option) (*sp.Monitor, sp.ReplayIDs) {
	m := sp.MustMonitor(append(opts, sp.WithBackend(backend), sp.WithRaceDetection(false))...)
	return m, sp.Replay(tr, m)
}

// timeIt runs f repeatedly and returns the best wall time. A GC cycle
// runs first so one experiment's garbage is not charged to the next.
func timeIt(reps int, f func()) time.Duration {
	runtime.GC()
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best
}

func reps() int {
	if *quick {
		return 2
	}
	return 3
}

// fig3Rows are Figure 3's algorithms and the registry backends that
// implement them. words is the constant label size of the two
// algorithms whose labels do not grow; the labelers report theirs
// through the sp_label_words_highwater gauge.
var fig3Rows = []struct {
	name, backend string
	words         float64
}{
	{"English-Hebrew", "english-hebrew", 0},
	{"Offset-Span", "offset-span", 0},
	{"SP-Bags", "sp-bags", 2},   // one DSU node: parent+rank
	{"SP-Order", "sp-order", 4}, // two OM items: label+bucket
}

// fig3 reproduces the comparison table of Figure 3: space per node, time
// per thread creation, time per query, for all four serial algorithms.
func fig3() {
	fmt.Println("=== Figure 3: serial SP-maintenance algorithms ===")
	n := 20000
	qn := 200000
	if *quick {
		n, qn = 4000, 20000
	}
	cfg := repro.DefaultGenConfig(n)
	cfg.PProb = 0.7
	tr := repro.Generate(cfg, repro.NewRand(1))
	// A wide fan maximizes nesting, the labelers' worst case. SP-bags
	// answers queries against the current thread only: the trailing
	// thread end.
	leaves := make([]*repro.Node, n/2)
	for i := range leaves {
		leaves[i] = repro.NewLeaf(fmt.Sprintf("u%d", i), 1)
	}
	end := repro.NewLeaf("end", 1)
	deep := repro.MustTree(repro.NewS(repro.Par(leaves...), end))
	rng := repro.NewRand(2)

	fmt.Printf("%-16s %18s %18s %14s\n", "algorithm", "space (words/node)", "creation (ns/thr)", "query (ns)")
	for _, r := range fig3Rows {
		el := timeIt(reps(), func() { maintain(tr, r.backend) })
		reg := metrics.NewRegistry()
		m, ids := maintain(deep, r.backend, sp.WithMetrics(reg))
		words := r.words
		if w, ok := reg.Snapshot().Value("sp_label_words_highwater"); ok {
			words = w
		}
		full := m.Backend().FullQueries
		q := timeIt(reps(), func() {
			for i := 0; i < qn; i++ {
				a, b := ids.Leaf(leaves[rng.Intn(len(leaves))]), ids.Leaf(end)
				if full {
					b = ids.Leaf(leaves[rng.Intn(len(leaves))])
				}
				m.Relation(a, b)
			}
		})
		fmt.Printf("%-16s %18.0f %18.1f %14.1f\n", r.name, words,
			float64(el.Nanoseconds())/float64(n), float64(q.Nanoseconds())/float64(qn))
	}
	fmt.Printf("(paper: EH space Θ(f), OS space Θ(d), SP-bags/SP-order Θ(1); queries Θ(f)/Θ(d)/Θ(α)/Θ(1))\n\n")
}

// theorem5 checks SP-order construction is O(n).
func theorem5() {
	fmt.Println("=== Theorem 5: SP-order construction is O(n) ===")
	ns := []int{1000, 10000, 100000, 1000000}
	if *quick {
		ns = []int{1000, 10000, 100000}
	}
	var xs, ys []float64
	fmt.Printf("%12s %14s %14s %16s\n", "n (threads)", "total", "ns/thread", "relabels/thread")
	for _, n := range ns {
		tr := repro.Generate(repro.DefaultGenConfig(n), repro.NewRand(int64(n)))
		reg := metrics.NewRegistry()
		maintain(tr, "sp-order", sp.WithMetrics(reg))
		relabels := reg.Snapshot().Sum("sp_om_relabels_total")
		el := timeIt(reps(), func() { maintain(tr, "sp-order") })
		xs = append(xs, float64(n))
		ys = append(ys, float64(el.Nanoseconds()))
		fmt.Printf("%12d %14v %14.1f %16.2f\n", n, el.Round(time.Microsecond),
			float64(el.Nanoseconds())/float64(n), relabels/float64(n))
	}
	k := stats.GrowthExponent(xs, ys)
	fmt.Printf("growth exponent (1.0 = linear): %.3f   ratio spread: %.2f\n\n",
		k, stats.RatioSpread(xs, ys))
}

// corollary6 checks race detection is O(T1) with SP-order and compares
// every backend registered in the repro/sp registry, driven through the
// event API (-backend restricts to one).
func corollary6() {
	fmt.Println("=== Corollary 6: race detection in O(T1) ===")
	fibs := []int{12, 15, 18, 21}
	if *quick {
		fibs = []int{10, 13, 16}
	}
	backends := selectedBackends()
	fmt.Printf("%8s %12s", "fib", "T1")
	for _, b := range backends {
		fmt.Printf(" %18s", b)
	}
	fmt.Println(" (total detection time)")
	perBackend := map[string][]float64{}
	var t1s []float64
	for _, n := range fibs {
		// All-reads sharing: race-free, but every access costs one SP
		// query, so the measurement is maintenance + queries without
		// race-report allocation noise.
		tr := workload.ReadOnlyAccesses(repro.FibTree(n, 1), 8, 256, repro.NewRand(3))
		t1 := float64(tr.Work() + int64(8*tr.NumThreads()))
		t1s = append(t1s, t1)
		fmt.Printf("%8d %12.0f", n, t1)
		for _, b := range backends {
			el := timeIt(reps(), func() {
				m := sp.MustMonitor(sp.WithBackend(b))
				sp.Replay(tr, m)
				m.Report()
			})
			perBackend[b] = append(perBackend[b], float64(el.Nanoseconds()))
			fmt.Printf(" %18v", el.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("growth exponent of time vs T1 (1.0 = the O(T1) claim):")
	for _, b := range backends {
		fmt.Printf("  %-18s %.3f\n", b, stats.GrowthExponent(t1s, perBackend[b]))
	}
	fmt.Println()
}

// theorem10 compares SP-hybrid against the naive locked parallelization
// of Section 3 across worker counts. The naive baseline is sp-order
// under ReplayParallel: the monitor applies every event of that
// unsynchronized backend under its one mutex, so the lock acquisitions
// are the monitor's event count.
func theorem10() {
	fmt.Println("=== Theorem 10: SP-hybrid vs naive locked SP-order ===")
	fib := 18
	if *quick {
		fib = 14
	}
	tr := repro.FibWithAccesses(fib, 4, 512, true, repro.NewRand(4))
	canon, _ := repro.Canonicalize(tr)
	fmt.Printf("workload: fib(%d), %d threads, T1=%d, T∞=%d, lg n ≈ %.1f\n",
		fib, canon.NumThreads(), canon.Work(), canon.Span(), lg(float64(canon.NumThreads())))
	fmt.Printf("%4s | %12s %10s %10s %12s | %12s %16s\n",
		"P", "hybrid time", "steals", "splits", "retries", "naive time", "naive lock acqs")
	for _, p := range []int{1, 2, 4, 8} {
		var hst repro.ParallelRaceReport
		hel := timeIt(reps(), func() { hst = repro.DetectParallel(canon, p, 1, true) })
		naive := func(opts ...sp.Option) {
			m := sp.MustMonitor(append(opts, sp.WithBackend("sp-order"))...)
			sp.ReplayParallel(canon, m, p)
			m.Report()
		}
		nel := timeIt(reps(), func() { naive() })
		reg := metrics.NewRegistry()
		naive(sp.WithMetrics(reg))
		fmt.Printf("%4d | %12v %10d %10d %12d | %12v %16.0f\n",
			p, hel.Round(time.Microsecond), hst.Stats.Steals, hst.Stats.Splits,
			hst.Stats.QueryRetries, nel.Round(time.Microsecond), reg.Snapshot().Sum("sp_monitor_events_total"))
	}
	fmt.Println("(hybrid's global-lock traffic is O(steals); naive locks EVERY insert+query: Θ(T1))")
	fmt.Println()
}

// section7 relates steal counts to P·T∞ across shapes.
func section7() {
	fmt.Println("=== Section 7: steals vs P·T∞ across shapes ===")
	n := 4096
	if *quick {
		n = 1024
	}
	shapes := []struct {
		name string
		tree *repro.Tree
	}{
		{"fan (tiny T∞)", repro.WideFan(n, 4)},
		{"balanced", repro.BalancedPTree(12, 4)},
		{"fib(16)", repro.FibTree(16, 2)},
		{"chain (T∞=T1)", repro.DeepChain(n, 4)},
	}
	fmt.Printf("%-16s %10s %10s %12s %10s %10s\n", "shape", "T1", "T∞", "T∞(struct)", "steals", "traces")
	for _, s := range shapes {
		canon := s.tree
		if !repro.IsCanonical(canon) {
			canon, _ = repro.Canonicalize(canon)
		}
		h := repro.NewSPHybrid(canon, func(w int, u *repro.Node) { runtime.Gosched() })
		st := h.Run(4, 1)
		fmt.Printf("%-16s %10d %10d %12d %10d %10d\n",
			s.name, canon.Work(), canon.Span(), canon.StructuralSpan(), st.Steals, st.Traces)
	}
	fmt.Println("(steals track the STRUCTURAL T∞, which includes spawn overhead on the critical path:\n zero for the chain, Θ(n) for the fan's spawn spine, small for balanced/fib)")
	fmt.Println()
}

// traceBenchResult is one (workload, backend) measurement of the
// trace-driven benchmark; the JSON field names are the committed
// BENCH_*.json schema.
type traceBenchResult struct {
	Workload     string  `json:"workload"`
	Backend      string  `json:"backend"`
	Events       int64   `json:"events"`
	TraceBytes   int64   `json:"traceBytes"`
	Threads      int64   `json:"threads"`
	PeakParallel int64   `json:"peakParallel"`
	Races        int     `json:"races"`
	NsPerEvent   float64 `json:"nsPerEvent"`
	EventsPerSec float64 `json:"eventsPerSec"`
	// Metrics is the backend-internals excerpt recorded while this row
	// ran (instrumented build; see benchMetrics).
	Metrics *benchMetrics `json:"metrics,omitempty"`
}

// traceBenchDoc is the -json output envelope.
type traceBenchDoc struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"numcpu"`
	Quick      bool               `json:"quick"`
	Threads    int                `json:"workloadThreads"`
	Note       string             `json:"note"`
	Results    []traceBenchResult `json:"results"`
}

// traceBench records one trace per workload shape and replays it
// through every registered backend, measuring whole-pipeline replay
// cost (decode + monitor + SP maintenance + race detection) per event.
func traceBench(jsonOut bool) {
	n := 2048
	if *quick {
		n = 256
	}
	backends := selectedBackends()
	doc := traceBenchDoc{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      *quick,
		Threads:    n,
		Note: "instrumented build: monitors record into an sp/metrics registry while measured, and " +
			"each row's metrics object excerpts backend internals (drains per event, shadow-shard " +
			"imbalance, pending-queue high-water)",
	}
	if !jsonOut {
		fmt.Println("=== Trace-driven backend benchmark (recorded event streams) ===")
		fmt.Printf("%-12s %-20s %10s %8s %12s %14s\n",
			"workload", "backend", "events", "peak∥", "ns/event", "events/sec")
	}
	for _, sc := range workload.Scenarios() {
		var buf bytes.Buffer
		if _, err := workload.RecordTrace(sc.Build(n, 11), &buf); err != nil {
			fmt.Fprintf(os.Stderr, "recording %s: %v\n", sc.Name, err)
			os.Exit(1)
		}
		data := buf.Bytes()
		st, err := trace.Stat(bytes.NewReader(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "stat %s: %v\n", sc.Name, err)
			os.Exit(1)
		}
		for _, b := range backends {
			var rep sp.Report
			reg := metrics.NewRegistry()
			el := timeIt(reps(), func() {
				var err error
				rep, err = trace.ReplayBackend(data, b, sp.WithMetrics(reg))
				if err != nil {
					fmt.Fprintf(os.Stderr, "replaying %s through %s: %v\n", sc.Name, b, err)
					os.Exit(1)
				}
			})
			nsPerEvent := float64(el.Nanoseconds()) / float64(st.Events)
			r := traceBenchResult{
				Workload:     sc.Name,
				Backend:      b,
				Events:       st.Events,
				TraceBytes:   st.Bytes,
				Threads:      st.Threads,
				PeakParallel: st.PeakParallel,
				Races:        len(rep.Races),
				NsPerEvent:   nsPerEvent,
				EventsPerSec: 1e9 / nsPerEvent,
				Metrics:      benchMetricsFrom(reg.Snapshot()),
			}
			doc.Results = append(doc.Results, r)
			if !jsonOut {
				fmt.Printf("%-12s %-20s %10d %8d %12.1f %14.0f\n",
					r.Workload, r.Backend, r.Events, r.PeakParallel, r.NsPerEvent, r.EventsPerSec)
			}
		}
	}
	if jsonOut {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Println("(whole-pipeline cost: trace decode + event validation + SP maintenance + race detection;")
	fmt.Println(" commit `spbench -json` output as BENCH_<host>.json to track the trajectory)")
	fmt.Println()
}

// concurrentBenchResult is one (workload, goroutines) measurement of
// the live-monitor scaling benchmark; the JSON field names are the
// committed BENCH_concurrent.json schema.
type concurrentBenchResult struct {
	Workload       string  `json:"workload"`
	Backend        string  `json:"backend"`
	Goroutines     int     `json:"goroutines"`
	Accesses       int64   `json:"accesses"`
	Races          int     `json:"races"`
	NsPerAccess    float64 `json:"nsPerAccess"`
	AccessesPerSec float64 `json:"accessesPerSec"`
	SpeedupVs1     float64 `json:"speedupVs1"`
	// Metrics is the backend-internals excerpt recorded while this row
	// ran (instrumented build; see benchMetrics).
	Metrics *benchMetrics `json:"metrics,omitempty"`
}

// concurrentBenchDoc is the -table concurrent -json output envelope.
type concurrentBenchDoc struct {
	GoMaxProcs           int                     `json:"gomaxprocs"`
	NumCPU               int                     `json:"numcpu"`
	Quick                bool                    `json:"quick"`
	AccessesPerGoroutine int                     `json:"accessesPerGoroutine"`
	Note                 string                  `json:"note"`
	Results              []concurrentBenchResult `json:"results"`
}

// concurrentWorkloads mirrors the trace scenarios' access mixes as live
// goroutine workloads. The access workloads (readmostly, forkjoin):
// every goroutine is one monitored thread doing reads over a shared
// address range (written serially by main before the fork, so reads
// are race-free) and writes over a thread-private range; the mix is
// the knob — readmostly writes 1/16 of the time, the forkjoin-style
// mix 1/4. The forkheavy workload instead drives Fork/Join through the
// live monitor from every goroutine — the structural-event scaling
// measurement — and runs on both concurrent backends: sp-hybrid
// (batched global-tier insertions) and depa (lock-free labels).
var concurrentWorkloads = []struct {
	name       string
	writeEvery int  // access workloads: write once per writeEvery accesses
	forkHeavy  bool // drive fork/join loops instead of accesses
	backends   []string
}{
	{name: "readmostly", writeEvery: 16, backends: []string{"sp-hybrid"}},
	{name: "forkjoin", writeEvery: 4, backends: []string{"sp-hybrid"}},
	{name: "forkheavy", forkHeavy: true, backends: []string{"sp-hybrid", "depa"}},
}

const concurrentSharedLocs = 64

// runConcurrentWorkload forks g monitored goroutine-threads off one
// live monitor, lets each perform perG reads/writes through its cached
// sp.Thread handle, and returns the wall time of the access phase
// (forks, joins, and Report excluded) plus the run's race count.
func runConcurrentWorkload(backend string, writeEvery, g, perG int, reg *metrics.Registry) (time.Duration, int) {
	m := sp.MustMonitor(sp.WithBackend(backend), sp.WithWorkers(g), sp.WithMetrics(reg))
	cur := m.Thread(m.Main())
	for a := uint64(0); a < concurrentSharedLocs; a++ {
		cur.Write(a) // main precedes every worker: reads below are race-free
	}
	workers := make([]sp.Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		wg.Add(1)
		go func(th sp.Thread, rng uint64) {
			defer wg.Done()
			priv := uint64(1)<<32 + uint64(th.ID())<<16
			for k := 0; k < perG; k++ {
				// xorshift64: cheap per-goroutine address stream.
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if rng%uint64(writeEvery) == 0 {
					th.Write(priv + rng%256)
				} else {
					th.Read(rng % concurrentSharedLocs)
				}
			}
		}(workers[i], uint64(i+1)*0x9e3779b97f4a7c15)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := g - 1; i >= 0; i-- {
		cur = workers[i].Join(cur)
	}
	return elapsed, len(m.Report().Races)
}

// runForkHeavyWorkload forks g monitored goroutine-threads and lets
// each run iters fork–access–join iterations through its sp.Thread
// handle: every iteration is one Fork, one or two Writes (mostly to a
// thread-private range; every 64th iteration to one of a few shared
// cells, racy across the parallel workers), and one Join. Structural
// events dominate the stream — the measurement is the monitor's
// structural fast path plus the backend's fork/join cost (batched
// global-tier insertion for sp-hybrid, label derivation for depa).
// The returned duration covers the fork/join phase; the race count
// comes from the shared-cell writes.
func runForkHeavyWorkload(backend string, g, iters int, reg *metrics.Registry) (time.Duration, int) {
	m := sp.MustMonitor(sp.WithBackend(backend), sp.WithWorkers(g), sp.WithMetrics(reg))
	cur := m.Thread(m.Main())
	workers := make([]sp.Thread, g)
	for i := range workers {
		workers[i], cur = cur.Fork()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		wg.Add(1)
		go func(th sp.Thread, id int) {
			defer wg.Done()
			priv := uint64(1)<<32 + uint64(id)<<16
			for k := 0; k < iters; k++ {
				l, c := th.Fork()
				if k%64 == 0 {
					l.Write(uint64(k/64) % 4) // shared racy cells
				} else {
					l.Write(priv + uint64(k%256))
				}
				th = l.Join(c)
			}
		}(workers[i], i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return elapsed, len(m.Report().Races)
}

// concurrentGoroutineCounts parses -goroutines, defaulting to powers of
// two up to max(4, NumCPU) plus NumCPU itself.
func concurrentGoroutineCounts() []int {
	if *goroutinesFlag != "" {
		var out []int
		for _, f := range strings.Split(*goroutinesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -goroutines value %q\n", f)
				os.Exit(2)
			}
			out = append(out, n)
		}
		return out
	}
	limit := runtime.NumCPU()
	if limit < 4 {
		limit = 4
	}
	var out []int
	for g := 1; g <= limit; g *= 2 {
		out = append(out, g)
	}
	if n := runtime.NumCPU(); n > 1 && out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// concurrentBench measures aggregate event throughput of one live
// monitor under increasing goroutine counts. The access workloads are
// the scaling proof of the sharded lock-free access fast path; the
// forkheavy workload exercises the structural fast path (no monitor
// mutex) plus each concurrent backend's fork/join cost. On single-CPU
// hosts it measures contention overhead under oversubscription
// (throughput should hold roughly flat as goroutines grow) rather
// than wall-clock speedup, as with the Theorem 10 experiment.
func concurrentBench(jsonOut bool) {
	perG := 200000
	if *quick {
		perG = 50000
	}
	counts := concurrentGoroutineCounts()
	doc := concurrentBenchDoc{
		GoMaxProcs:           runtime.GOMAXPROCS(0),
		NumCPU:               runtime.NumCPU(),
		Quick:                *quick,
		AccessesPerGoroutine: perG,
		Note: "accesses/sec is aggregate across goroutines; speedupVs1 is vs the 1-goroutine run " +
			"of the same (workload, backend) pair (0 when the run list has no preceding 1-goroutine " +
			"baseline); forkheavy rows count monitored events (one fork, one write, one join per " +
			"iteration) in the accesses column; on single-CPU hosts this measures oversubscription " +
			"overhead, not parallel speedup; instrumented build: monitors record into an sp/metrics " +
			"registry while measured, and each row's metrics object excerpts backend internals",
	}
	if !jsonOut {
		fmt.Println("=== Concurrent monitor scaling (lock-free access + structural fast paths) ===")
		fmt.Printf("%-12s %-12s %6s %12s %8s %12s %14s %10s\n",
			"workload", "backend", "G", "events", "races", "ns/event", "events/sec", "vs G=1")
	}
	for _, w := range concurrentWorkloads {
		// Fork/join iterations are ~3 monitored events each and carry OM
		// or label maintenance; scale the per-goroutine count down so the
		// workloads take comparable time.
		iters := perG
		if w.forkHeavy {
			iters = perG / 10
		}
		for _, b := range w.backends {
			var base float64
			for _, g := range counts {
				// Best phase time over the repetitions (monitor setup and
				// Report are excluded from the clock).
				runtime.GC()
				best := time.Duration(1<<62 - 1)
				var races int
				reg := metrics.NewRegistry()
				for i := 0; i < reps(); i++ {
					var e time.Duration
					var r int
					if w.forkHeavy {
						e, r = runForkHeavyWorkload(b, g, iters, reg)
					} else {
						e, r = runConcurrentWorkload(b, w.writeEvery, g, iters, reg)
					}
					races = r
					if e < best {
						best = e
					}
				}
				total := int64(g) * int64(iters)
				if w.forkHeavy {
					total *= 3 // fork + write + join per iteration
				}
				nsPer := float64(best.Nanoseconds()) / float64(total)
				perSec := 1e9 / nsPer // aggregate across goroutines
				r := concurrentBenchResult{
					Workload:       w.name,
					Backend:        b,
					Goroutines:     g,
					Accesses:       total,
					Races:          races,
					NsPerAccess:    nsPer,
					AccessesPerSec: perSec,
					Metrics:        benchMetricsFrom(reg.Snapshot()),
				}
				if g == 1 {
					base = perSec
				}
				if base > 0 {
					r.SpeedupVs1 = perSec / base
				}
				doc.Results = append(doc.Results, r)
				if !jsonOut {
					fmt.Printf("%-12s %-12s %6d %12d %8d %12.1f %14.0f %9.2fx\n",
						r.Workload, r.Backend, r.Goroutines, r.Accesses, r.Races, r.NsPerAccess, r.AccessesPerSec, r.SpeedupVs1)
				}
			}
		}
	}
	if jsonOut {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Println("(one live monitor, G goroutine-threads via cached sp.Thread handles; access workloads read")
	fmt.Println(" 64 shared locations and write thread-private ones; forkheavy runs fork-write-join loops")
	fmt.Println(" on each concurrent backend; commit `spbench -table concurrent -json` as")
	fmt.Println(" BENCH_concurrent.json to track the scaling trajectory)")
	fmt.Println()
}

func lg(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}
