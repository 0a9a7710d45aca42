package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/sp"
	spmetrics "repro/sp/metrics"
)

// The live workloads drive one sp.Monitor on the spsync default
// backend from two goroutines (the vCPU count of the VM it was measured
// on), each on a cached
// sp.Thread handle. Every repetition monitors a fresh program on a
// fresh monitor, so the retained state of one repetition never slows
// the next.
const (
	liveBackend     = "sp-hybrid"
	liveGoroutines  = 2
	sharedCells     = 64      // cells main writes before forking; read-mostly reads them
	readMostlyOps   = 1 << 17 // accesses per goroutine per repetition
	forkHeavyCycles = 1 << 13 // fork → write → join cycles per goroutine per repetition
	forkHeavyShared = 4       // cells every 64th fork-heavy write goes to
	chunkIters      = 1024    // loop iterations timed as one stream
	writeBit        = 1 << 63 // marks a write in an op
)

// privateBase is the first private address of goroutine g: no other
// goroutine ever touches it.
func privateBase(g int) uint64 { return 1<<20 + uint64(g)<<16 }

// genReadMostly returns each goroutine's accesses: 15/16 reads of the
// shared cells and 1/16 writes of the goroutine's own cells.
func genReadMostly(seed int64) [liveGoroutines][]uint64 {
	var ops [liveGoroutines][]uint64
	for g := range ops {
		rng := rand.New(rand.NewSource(seed*liveGoroutines + int64(g)))
		ops[g] = make([]uint64, readMostlyOps)
		for i := range ops[g] {
			if rng.Intn(16) == 0 {
				ops[g][i] = writeBit | (privateBase(g) + uint64(rng.Intn(256)))
			} else {
				ops[g][i] = uint64(rng.Intn(sharedCells))
			}
		}
	}
	return ops
}

// genForkHeavy returns the address each goroutine's fork-heavy cycle
// writes: the goroutine's own cells, except that every 64th write goes
// to the shared cells in turn, so every shared cell is written by both
// goroutines in every repetition whatever the schedule.
func genForkHeavy(seed int64, shared bool) [liveGoroutines][]uint64 {
	var ops [liveGoroutines][]uint64
	for g := range ops {
		rng := rand.New(rand.NewSource(seed*liveGoroutines + int64(g)))
		off := rng.Intn(forkHeavyShared)
		ops[g] = make([]uint64, forkHeavyCycles)
		for i := range ops[g] {
			if shared && i%64 == 63 {
				ops[g][i] = uint64((off + i/64) % forkHeavyShared)
			} else {
				ops[g][i] = privateBase(g) + uint64(rng.Intn(256))
			}
		}
	}
	return ops
}

// checkReadMostly: the read-mostly program has no race.
func checkReadMostly(rep sp.Report) error {
	if len(rep.Races) != 0 {
		return fmt.Errorf("read-mostly reported %d races on %v, want none", len(rep.Races), rep.Locations)
	}
	return nil
}

// checkForkHeavy: the raced locations are exactly the shared cells. The
// race count depends on the interleaving and is not checked.
func checkForkHeavy(rep sp.Report) error {
	want := make([]uint64, forkHeavyShared)
	for i := range want {
		want[i] = uint64(i)
	}
	if !slices.Equal(rep.Locations, want) {
		return fmt.Errorf("fork-heavy raced locations %v, want %v", rep.Locations, want)
	}
	return nil
}

// liveTimers holds one goroutine's per-call timings in the traced run.
type liveTimers struct {
	read, write, fork, join *sampler
}

func newLiveTimers() *liveTimers {
	return &liveTimers{read: newSampler(1 << 16), write: newSampler(1 << 16), fork: newSampler(1 << 16), join: newSampler(1 << 16)}
}

// liveShape is what distinguishes the two live workloads.
type liveShape struct {
	ops        [liveGoroutines][]uint64
	iterEvents int64 // monitored events per loop iteration
	check      func(sp.Report) error
	// body runs one goroutine's ops on th and returns the thread the
	// goroutine ends on; chunk receives the wall time of each
	// chunkIters iterations, and tm, when non-nil, each call's time.
	body func(th sp.Thread, ops []uint64, chunk func(time.Duration), tm *liveTimers) sp.Thread
}

func readMostlyBody(th sp.Thread, ops []uint64, chunk func(time.Duration), tm *liveTimers) sp.Thread {
	t0 := time.Now()
	for i, op := range ops {
		switch {
		case tm != nil:
			s := time.Now()
			if op&writeBit != 0 {
				th.Write(op &^ writeBit)
				tm.write.add(time.Since(s).Nanoseconds())
			} else {
				th.Read(op)
				tm.read.add(time.Since(s).Nanoseconds())
			}
		case op&writeBit != 0:
			th.Write(op &^ writeBit)
		default:
			th.Read(op)
		}
		if (i+1)%chunkIters == 0 {
			now := time.Now()
			chunk(now.Sub(t0))
			t0 = now
		}
	}
	return th
}

func forkHeavyBody(th sp.Thread, ops []uint64, chunk func(time.Duration), tm *liveTimers) sp.Thread {
	t0 := time.Now()
	for i, addr := range ops {
		if tm != nil {
			s := time.Now()
			child, cont := th.Fork()
			s1 := time.Now()
			child.Write(addr)
			s2 := time.Now()
			th = child.Join(cont)
			s3 := time.Now()
			tm.fork.add(s1.Sub(s).Nanoseconds())
			tm.write.add(s2.Sub(s1).Nanoseconds())
			tm.join.add(s3.Sub(s2).Nanoseconds())
		} else {
			child, cont := th.Fork()
			child.Write(addr)
			th = child.Join(cont)
		}
		if (i+1)%chunkIters == 0 {
			now := time.Now()
			chunk(now.Sub(t0))
			t0 = now
		}
	}
	return th
}

// liveRep is one repetition's outcome.
type liveRep struct {
	rep
	report   sp.Report
	reportNS int64
	err      error
}

// runLiveRep monitors one program on a fresh monitor: main writes the
// shared cells and forks once, the two goroutines run their ops on the
// two branches, and main joins them and takes the report. Only the
// goroutines' work is timed.
func runLiveRep(sh *liveShape, opts []sp.Option, chunks *sampler, tms []*liveTimers) liveRep {
	m, err := sp.NewMonitor(opts...)
	if err != nil {
		return liveRep{err: err}
	}
	main := m.Thread(m.Main())
	for c := 0; c < sharedCells; c++ {
		main.Write(uint64(c))
	}
	left, right := main.Fork()
	starts := [liveGoroutines]sp.Thread{left, right}
	var ends [liveGoroutines]sp.Thread
	var own [liveGoroutines][]time.Duration
	r := measure(func() int64 {
		var wg sync.WaitGroup
		for g := range starts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var tm *liveTimers
				if tms != nil {
					tm = tms[g]
				}
				ends[g] = sh.body(starts[g], sh.ops[g], func(d time.Duration) { own[g] = append(own[g], d) }, tm)
			}()
		}
		wg.Wait()
		return int64(len(sh.ops[0])+len(sh.ops[1])) * sh.iterEvents
	})
	if chunks != nil {
		for g := range own {
			for _, d := range own[g] {
				chunks.add(d.Nanoseconds())
			}
		}
	}
	ends[0].Join(ends[1])
	t0 := time.Now()
	report := m.Report()
	return liveRep{rep: r, report: report, reportNS: time.Since(t0).Nanoseconds(), err: sh.check(report)}
}

// livePhase repeats runLiveRep for d, freeing the previous repetition's
// memory before each one.
type livePhase struct {
	reps      []rep
	rssMB     []float64 // peak resident set of each repetition
	chunks    *sampler  // stream times, in the untraced half of the traced run
	attempted int64
	failed    int64
	reportNS  []float64
	queries   int64
	accesses  int64
	threads   []float64
	gcCycles  uint32
	allocB    uint64
	steal     float64
}

func runLivePhase(sh *liveShape, d time.Duration, opts []sp.Option, chunks *sampler, tms []*liveTimers) (*livePhase, error) {
	ph := &livePhase{chunks: chunks}
	steal0 := stealSeconds()
	var ms0, ms1 runtime.MemStats
	reps, err := repeat(d, 3, func() (rep, error) {
		debug.FreeOSMemory()
		resetPeakRSS()
		if tms != nil {
			runtime.ReadMemStats(&ms0)
		}
		lr := runLiveRep(sh, opts, ph.chunks, tms)
		ph.rssMB = append(ph.rssMB, peakRSSMB())
		if tms != nil {
			runtime.ReadMemStats(&ms1)
			ph.gcCycles += ms1.NumGC - ms0.NumGC
			ph.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if lr.err != nil && lr.report.Backend == "" {
			return rep{}, lr.err
		}
		ph.attempted++
		if lr.err != nil {
			ph.failed++
			fmt.Printf("check failed: %v\n", lr.err)
		}
		ph.reportNS = append(ph.reportNS, float64(lr.reportNS))
		ph.queries += lr.report.Queries
		ph.accesses += lr.report.Accesses
		ph.threads = append(ph.threads, float64(lr.report.Threads))
		return lr.rep, nil
	})
	ph.reps = reps
	ph.steal = stealSeconds() - steal0
	return ph, err
}

func runReadMostly(cfg config) (*outcome, error) {
	var ops [liveGoroutines][]uint64
	setup, err := medianSetup(9, func() error {
		ops = genReadMostly(cfg.seed)
		_, err := sp.NewMonitor(sp.WithBackend(liveBackend), sp.WithWorkers(liveGoroutines))
		return err
	})
	if err != nil {
		return nil, err
	}
	sh := &liveShape{ops: ops, iterEvents: 1, check: checkReadMostly, body: readMostlyBody}
	return runLive(cfg, sh, setup)
}

func runForkHeavy(cfg config) (*outcome, error) {
	var ops [liveGoroutines][]uint64
	setup, err := medianSetup(9, func() error {
		ops = genForkHeavy(cfg.seed, true)
		_, err := sp.NewMonitor(sp.WithBackend(liveBackend), sp.WithWorkers(liveGoroutines))
		return err
	})
	if err != nil {
		return nil, err
	}
	sh := &liveShape{ops: ops, iterEvents: 3, check: checkForkHeavy, body: forkHeavyBody}
	return runLive(cfg, sh, setup)
}

func runLive(cfg config, sh *liveShape, setup float64) (*outcome, error) {
	opts := []sp.Option{sp.WithBackend(liveBackend), sp.WithWorkers(liveGoroutines)}
	ms := newMetrics()
	if !cfg.traced {
		ph, err := runLivePhase(sh, cfg.seconds, opts, nil, nil)
		if err != nil {
			return nil, err
		}
		perCPU, _ := throughput(ph.reps)
		ms.set("setup_s", "s", setup*refScale(kernelNominal))
		ms.set("events_per_ref_cpu_s", "1/s", perCPU/refScale(kernelNominal))
		ms.set("peak_rss_mb", "MiB", median(ph.rssMB))
		return &outcome{attempted: ph.attempted, failed: ph.failed, ms: ms, host: hostNow(ph.steal)}, nil
	}

	base, err := runLivePhase(sh, cfg.seconds/2, opts, newSampler(1<<16), nil)
	if err != nil {
		return nil, err
	}
	setWallClock(ms, base.reps, msOf(merged(base.chunks)))
	reg := spmetrics.NewRegistry()
	tms := make([]*liveTimers, liveGoroutines)
	for g := range tms {
		tms[g] = newLiveTimers()
	}
	ph, err := runLivePhase(sh, cfg.seconds-cfg.seconds/2, append(opts, sp.WithMetrics(reg)), nil, tms)
	if err != nil {
		return nil, err
	}
	var events int64
	for _, r := range ph.reps {
		events += r.events
	}
	basePerCPU, _ := throughput(base.reps)
	perCPU, _ := throughput(ph.reps)
	var rd, wr, fk, jn []*sampler
	for _, tm := range tms {
		rd, wr, fk, jn = append(rd, tm.read), append(wr, tm.write), append(fk, tm.fork), append(jn, tm.join)
	}
	ms.set("monitor.read_ns_p50", "ns", percentile(merged(rd...), 50))
	ms.set("monitor.read_ns_p99", "ns", percentile(merged(rd...), 99))
	ms.set("monitor.write_ns_p50", "ns", percentile(merged(wr...), 50))
	ms.set("monitor.write_ns_p99", "ns", percentile(merged(wr...), 99))
	ms.set("monitor.access_ns_p50", "ns", percentile(merged(append(rd, wr...)...), 50))
	if len(merged(fk...)) > 0 {
		ms.set("monitor.fork_ns_p50", "ns", percentile(merged(fk...), 50))
		ms.set("monitor.fork_ns_p99", "ns", percentile(merged(fk...), 99))
		ms.set("monitor.join_ns_p50", "ns", percentile(merged(jn...), 50))
		ms.set("monitor.join_ns_p99", "ns", percentile(merged(jn...), 99))
	} else {
		for _, k := range []string{"monitor.fork_ns_p50", "monitor.fork_ns_p99", "monitor.join_ns_p50", "monitor.join_ns_p99"} {
			ms.none(k, "ns", "the goroutines make no fork or join; main's one fork and join per repetition are untimed")
		}
	}
	ms.set("monitor.report_ms", "ms", median(ph.reportNS)/1e6)
	ms.set("monitor.queries_per_access", "ratio", float64(ph.queries)/float64(ph.accesses))
	ms.set("monitor.threads_retained", "count", median(ph.threads))
	setMonitorRegistry(ms, reg.Snapshot(), events)
	ms.set("gc.alloc_bytes_per_event", "B", float64(ph.allocB)/float64(events))
	ms.set("gc.cycles", "count", float64(ph.gcCycles))
	ms.set("events_per_cpu_s", "1/s", basePerCPU)
	ms.set("host.ref_rate", "1/s", median(refRates))
	ms.set("host.steal_s", "s", ph.steal)
	ms.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	ms.set("tracing.overhead_ratio", "ratio", perCPU/basePerCPU)
	for _, k := range []string{"monitor.put_ns_p50", "monitor.get_ns_p50"} {
		ms.none(k, "ns", "the live workloads publish no sync-object edges")
	}
	ms.none("monitor.acquire_ns_p50", "ns", "the live workloads take no locks")
	noTrace(ms, "the live workloads apply events directly, not from a trace")
	noTraced(ms, "only ingest-fleet runs the ingest server")
	noSpsync(ms, "only instrumented-fanin runs an instrumented program")
	return &outcome{attempted: base.attempted + ph.attempted, failed: base.failed + ph.failed, ms: ms, host: hostNow(ph.steal)}, nil
}

// setMonitorRegistry reads the backend-layer metrics from a monitor
// registry snapshot.
func setMonitorRegistry(ms *metrics, snap spmetrics.Snapshot, events int64) {
	drains, _ := snap.Value("sp_om_drains_total")
	hw, _ := snap.Value("sp_om_pending_highwater")
	imb, _ := snap.Value("sp_shadow_shard_imbalance")
	ms.set("om.drains_per_event", "ratio", drains/float64(events))
	ms.set("om.relabels_per_event", "ratio", snap.Sum("sp_om_relabels_total")/float64(events))
	ms.set("om.pending_highwater", "count", hw)
	ms.set("shadow.shard_imbalance", "ratio", imb)
}

func noTrace(ms *metrics, why string) {
	ms.none("trace.decode_ns_per_event", "ns", why)
	ms.none("trace.apply_ns_per_event", "ns", why)
	ms.none("trace.bytes_per_event", "B", why)
}

func noTraced(ms *metrics, why string) {
	ms.none("traced.server_ms_p50", "ms", why)
	ms.none("traced.server_ms_p90", "ms", why)
	ms.none("traced.queue_ms_p50", "ms", why)
	ms.none("traced.workers_busy_frac", "ratio", why)
}

func noSpsync(ms *metrics, why string) {
	ms.none("spsync.runtime_cpu_s", "s", why)
	ms.none("spsync.puts", "count", why)
	ms.none("spsync.gets", "count", why)
	ms.none("spsync.accesses", "count", why)
	ms.none("instrument.rewrite_s", "s", why)
	ms.none("instrument.build_s", "s", why)
}
