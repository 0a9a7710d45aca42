// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks that every monitored outcome is
// correct, and prints one JSON result line:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-root <dir>]
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a separate traced run (timers around
// each call the benchmark makes into a layer, plus the sp/metrics
// registry), and the tracing overhead. BENCHMARK.json at the repository
// root names every metric, the layer each one belongs to, and the
// workload each should move. Launch it through run.sh, which builds it
// inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what every workload receives: the seed its inputs are
// generated from, how long to measure, whether this is the traced run,
// and where the repository checkout and the build directory are.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	root    string
	build   string
}

// outcome is one workload run: operations checked, operations that
// failed their check, and the measurements.
type outcome struct {
	attempted, failed int64
	ms                *metrics
	host              host
}

type benchWorkload struct {
	name string
	run  func(config) (*outcome, error)
	// split runs the untraced run as parts in fresh processes (see
	// runSplit). The instrumented-program workload already measures a
	// fresh child process per sample.
	split bool
}

var workloads = []benchWorkload{
	{"live-readmostly", runReadMostly, true},
	{"live-forkheavy", runForkHeavy, true},
	{"ingest-fleet", runIngest, true},
	{"instrumented-fanin", runFanin, false},
}

// endToEnd and perLayer are the metric sets of the untraced and traced
// runs; every workload reports every metric of its set.
var endToEnd = []string{"setup_s", "events_per_ref_cpu_s", "peak_rss_mb"}

var perLayer = []string{
	"events_per_cpu_s", "events_per_s", "stream_ms_p50", "stream_ms_p90",
	"monitor.read_ns_p50", "monitor.read_ns_p99", "monitor.write_ns_p50", "monitor.write_ns_p99",
	"monitor.fork_ns_p50", "monitor.fork_ns_p99", "monitor.join_ns_p50", "monitor.join_ns_p99",
	"monitor.access_ns_p50", "monitor.put_ns_p50", "monitor.get_ns_p50", "monitor.acquire_ns_p50",
	"monitor.report_ms", "monitor.queries_per_access", "monitor.threads_retained",
	"om.drains_per_event", "om.relabels_per_event", "om.pending_highwater", "shadow.shard_imbalance",
	"gc.alloc_bytes_per_event", "gc.cycles",
	"trace.decode_ns_per_event", "trace.apply_ns_per_event", "trace.bytes_per_event",
	"traced.server_ms_p50", "traced.server_ms_p90", "traced.queue_ms_p50", "traced.workers_busy_frac",
	"spsync.runtime_cpu_s", "spsync.puts", "spsync.gets", "spsync.accesses",
	"instrument.rewrite_s", "instrument.build_s",
	"host.ref_rate", "host.steal_s", "host.gomaxprocs", "tracing.overhead_ratio",
}

// procs is the benchmark's GOMAXPROCS, and the instrumented program's.
// On the 2-vCPU VM the benchmark was measured on, the hypervisor takes
// anywhere from none to nearly half of the two vCPUs. With two Ps the workloads' goroutines then alternate
// between running in parallel, contending for shared locks and cache
// lines, and running one at a time without contention, and CPU per
// event moves by a quarter with the steal. With one P they always
// interleave on one CPU, and CPU time per event does not depend on how
// much CPU the host grants.
const procs = 1

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	root := flag.String("root", "..", "root of the repository checkout")
	part := flag.Duration("part", 0, "run one part of a split run, timed for this long")
	flag.Parse()

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload %v -seed N -seconds S -trace 0|1\n", names)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		root:    rootAbs,
		build:   filepath.Join(rootAbs, ".bench_build", "perfbench"),
	}
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		fatal(err)
	}
	var out *outcome
	switch {
	case *part > 0:
		cfg.seconds = *part
		out, err = w.run(cfg)
	case w.split && !cfg.traced:
		out, err = runSplit(w, cfg)
	default:
		out, err = w.run(cfg)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	res := result{
		Correct:   out.attempted > 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, k := range want {
		m, ok := out.ms.m[k]
		if !ok {
			fatal(fmt.Errorf("%s: metric %s was not measured", w.name, k))
		}
		res.Metrics[k] = m
	}
	hj, _ := json.Marshal(out.host)
	fmt.Printf("host %s\n", hj)
	absent := make([]string, 0, len(out.ms.absent))
	for k := range out.ms.absent {
		absent = append(absent, k)
	}
	sort.Strings(absent)
	for _, k := range absent {
		fmt.Printf("absent %s: %s\n", k, out.ms.absent[k])
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// splits is how many fresh processes share a split run's timed phase.
const splits = 4

// runSplit runs the workload as splits parts, one after another, each
// in a fresh process of this program timed for an equal share of the
// run, and reports the median of the parts' metrics. Some of a
// process's speed is fixed when it starts (where its memory lands, how
// its garbage collections fall against the workload's repetitions), and
// a median over several processes keeps one unlucky process from
// moving a run's result.
func runSplit(w *benchWorkload, cfg config) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &outcome{ms: newMetrics()}
	vals := map[string][]float64{}
	units := map[string]string{}
	var steal float64
	var refs []float64
	for i := 0; i < splits; i++ {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-trace", "0",
			"-root", cfg.root, "-part", (cfg.seconds / splits).String())
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		for _, l := range lines[:len(lines)-1] {
			var h host
			if hj, ok := strings.CutPrefix(l, "host "); ok && json.Unmarshal([]byte(hj), &h) == nil {
				steal += h.StealS
				refs = append(refs, h.RefRate)
			} else {
				fmt.Println(l)
			}
		}
		out.attempted += res.Attempted
		out.failed += res.Failed
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	for k, v := range vals {
		out.ms.set(k, units[k], median(v))
	}
	refRates = refs
	out.host = hostNow(steal)
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
