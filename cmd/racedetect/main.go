// Command racedetect runs the on-the-fly determinacy-race detector on a
// generated fork-join workload and reports what it finds, exercising
// every SP-maintenance backend registered in the repro/sp registry
// through the event API, plus the scheduler-coupled parallel SP-hybrid
// detector. -workload locks compares determinacy detection with the
// lock-aware ALL-SETS protocol on the selected backends.
//
// Usage:
//
//	racedetect -workload {planted|vector|vector-buggy|fib|locks}
//	           [-threads n] [-seed s] [-workers p] [-backend name]
//	           [-trace file]
//
// -backend selects one registered backend by name; "all" runs every
// registered backend; "?" (or "list") prints the registry with each
// backend's capabilities and asymptotic bounds and exits; an unknown
// name exits with status 2 before any workload runs. -trace
// additionally records the workload's serial event stream as a binary
// trace (replayable with `sptrace replay`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/workload"
	"repro/sp"
)

func main() {
	workloadName := flag.String("workload", "planted", "workload: planted|vector|vector-buggy|fib|locks")
	threads := flag.Int("threads", 128, "threads in the generated program")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 4, "workers for the parallel detector")
	backend := flag.String("backend", "all", "backend registry name, 'all', or '?' to list")
	tracePath := flag.String("trace", "", "also record the serial event stream to this trace file")
	flag.Parse()
	traceOut = *tracePath

	if *backend == "?" || *backend == "list" {
		printBackends()
		return
	}
	names := sp.BackendNames()
	if *backend != "all" {
		if _, ok := sp.Lookup(*backend); !ok {
			fmt.Fprintf(os.Stderr, "unknown backend %q (available: %v, or '?' to list)\n",
				*backend, names)
			os.Exit(2)
		}
		names = []string{*backend}
	}

	rng := repro.NewRand(*seed)
	switch *workloadName {
	case "locks":
		runLocks(names)
		return
	case "planted":
		cfg := repro.DefaultPlantConfig()
		cfg.Threads = *threads
		p := repro.PlantRaces(cfg, rng)
		fmt.Printf("Planted workload: %d threads, %d racy locations %v, %d safe locations\n\n",
			p.Tree.NumThreads(), len(p.RacyLocs), p.RacyLocs, len(p.SafeLocs))
		runAll(p.Tree, names, *workers, *seed)
	case "vector":
		tr := repro.VectorAccumulate(*threads, false)
		fmt.Printf("Vector-accumulate (correct): %d workers + reduction\n\n", *threads)
		runAll(tr, names, *workers, *seed)
	case "vector-buggy":
		tr := repro.VectorAccumulate(*threads, true)
		fmt.Printf("Vector-accumulate (buggy: reduction parallel to loop): %d workers\n\n", *threads)
		runAll(tr, names, *workers, *seed)
	case "fib":
		tr := repro.FibWithAccesses(16, 6, 128, true, rng)
		fmt.Printf("fib(16) with shared accesses: %d threads, T1=%d\n\n", tr.NumThreads(), tr.Work())
		runAll(tr, names, *workers, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
}

// printBackends lists the registry with capabilities and bounds.
func printBackends() {
	fmt.Println("Registered SP-maintenance backends (repro/sp):")
	fmt.Printf("%-18s %-10s %-9s %-12s %-28s %s\n",
		"name", "queries", "events", "update", "query cost", "description")
	for _, info := range sp.Backends() {
		queries := "current"
		if info.FullQueries {
			queries = "any-pair"
		}
		order := "serial"
		if info.AnyOrder {
			order = "any-order"
		}
		fmt.Printf("%-18s %-10s %-9s %-12s %-28s %s\n",
			info.Name, queries, order, info.UpdateBound, info.QueryBound, info.Description)
	}
}

// traceOut is the -trace flag: when set, runAll also records the
// workload's serial event stream there.
var traceOut string

// recordTrace writes tr's serial event stream to path via the shared
// workload.RecordTrace helper.
func recordTrace(tr *repro.Tree, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := workload.RecordTrace(tr, f); err != nil {
		return err
	}
	return f.Close()
}

// detect replays tr serially through a fresh monitor on backend.
func detect(tr *repro.Tree, backend string, opts ...sp.Option) sp.Report {
	m := sp.MustMonitor(append(opts, sp.WithBackend(backend))...)
	sp.Replay(tr, m)
	return m.Report()
}

func runAll(tr *repro.Tree, names []string, workers int, seed int64) {
	if traceOut != "" {
		if err := recordTrace(tr, traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "recording trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded serial event stream to %s (replay with: sptrace replay -backend all %s)\n\n",
			traceOut, traceOut)
	}
	fmt.Printf("%-20s %10s %10s %10s  %s\n", "backend", "races", "locations", "time", "raced locations")
	for _, name := range names {
		start := time.Now()
		rep := detect(tr, name)
		el := time.Since(start)
		fmt.Printf("%-20s %10d %10d %10v  %v\n",
			name, len(rep.Races), len(rep.Locations), el.Round(time.Microsecond), summarize(rep.Locations))
	}

	canon := tr
	if !repro.IsCanonical(tr) {
		canon, _ = repro.Canonicalize(tr)
	}
	start := time.Now()
	prep := repro.DetectParallel(canon, workers, seed, true)
	el := time.Since(start)
	fmt.Printf("%-20s %10d %10d %10v  %v\n",
		fmt.Sprintf("sp-hybrid(sched P=%d)", workers), len(prep.Races), len(prep.Locations),
		el.Round(time.Microsecond), summarize(prep.Locations))
	fmt.Printf("\nSP-hybrid scheduler run: %d steals, %d splits, %d traces, %d query retries\n",
		prep.Stats.Steals, prep.Stats.Splits, prep.Stats.Traces, prep.Stats.QueryRetries)

	if len(prep.Races) > 0 {
		fmt.Println("\nFirst few races:")
		for i, r := range prep.Races {
			if i == 5 {
				break
			}
			fmt.Println(" ", r)
		}
	}
}

func runLocks(names []string) {
	tr, protected, unprotected := repro.LockProtected(6, repro.NewRand(2))
	fmt.Println("Lock workload: 6 writers sharing one mutex-protected cell,")
	fmt.Println("plus two unlocked parallel writers on a second cell.")
	if traceOut != "" {
		if err := recordTrace(tr, traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "recording trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded serial event stream to %s\n", traceOut)
	}
	fmt.Printf("\nlocked cell x%d, unlocked cell x%d; the determinacy detector cannot see locks,\n", protected, unprotected)
	fmt.Println("the lock-aware (ALL-SETS) detector flags only the unlocked cell")
	fmt.Printf("%-20s %-12s %s\n", "backend", "determinacy", "lock-aware")
	var first sp.Report
	for i, name := range names {
		det := detect(tr, name)
		lrep := detect(tr, name, sp.WithLockAwareness(true))
		fmt.Printf("%-20s %-12s %v\n", name, fmt.Sprint(det.Locations), lrep.Locations)
		if i == 0 {
			first = lrep
		}
	}
	fmt.Printf("\nlock-aware races (%s):\n", names[0])
	for _, r := range first.Races {
		fmt.Println(" ", r)
	}
}

func summarize[T any](locs []T) string {
	if len(locs) <= 10 {
		return fmt.Sprint(locs)
	}
	parts := make([]string, 10)
	for i := 0; i < 10; i++ {
		parts[i] = fmt.Sprint(locs[i])
	}
	return "[" + strings.Join(parts, " ") + " …]"
}
