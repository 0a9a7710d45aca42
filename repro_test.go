package repro_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/race"
	"repro/sp"
	"repro/sp/metrics"
)

// TestQuickstartFlow is the end-to-end integration path of the README:
// build a program, replay it through an SP-order monitor, query.
func TestQuickstartFlow(t *testing.T) {
	tr := repro.PaperExample()
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	ids := sp.Replay(tr, m)
	threads := tr.Threads()
	u1, u4, u6 := ids.Leaf(threads[1]), ids.Leaf(threads[4]), ids.Leaf(threads[6])
	if !m.Precedes(u1, u4) {
		t.Fatal("u1 must precede u4 (paper Section 1)")
	}
	if !m.Parallel(u1, u6) {
		t.Fatal("u1 must be parallel to u6 (paper Section 1)")
	}
}

// detect replays tr serially through a fresh monitor and returns the
// raced locations.
func detect(tr *repro.Tree, opts ...sp.Option) string {
	m := sp.MustMonitor(opts...)
	sp.Replay(tr, m)
	return fmt.Sprint(m.Report().Locations)
}

// TestFourBackendsAgreeOnRaces integrates generators, the four serial
// SP-maintenance backends of Figure 3, and the detector.
func TestFourBackendsAgreeOnRaces(t *testing.T) {
	rng := repro.NewRand(7)
	p := repro.PlantRaces(repro.DefaultPlantConfig(), rng)
	want := fmt.Sprint(p.RacyLocs)
	for _, b := range []string{"sp-order", "sp-bags", "english-hebrew", "offset-span"} {
		if got := detect(p.Tree, sp.WithBackend(b)); got != want {
			t.Fatalf("%v: locations %v, want %v", b, got, want)
		}
	}
}

// TestParallelPipeline integrates canonicalization, the scheduler,
// SP-hybrid, and the parallel detector.
func TestParallelPipeline(t *testing.T) {
	rng := repro.NewRand(13)
	p := repro.PlantRaces(repro.DefaultPlantConfig(), rng)
	canon, _ := repro.Canonicalize(p.Tree)
	rep := repro.DetectParallel(canon, 4, 1, true)
	if !reflect.DeepEqual(rep.Locations, p.RacyLocs) {
		t.Fatalf("parallel: locations %v, want %v", rep.Locations, p.RacyLocs)
	}
	if rep.Stats.ThreadsExecuted != int64(canon.NumThreads()) {
		t.Fatal("not all threads executed")
	}
}

// TestHybridDirectUse exercises the SPHybrid API directly from the
// facade, with in-thread queries.
func TestHybridDirectUse(t *testing.T) {
	tr := repro.FibTree(10, 1)
	o := repro.NewOracle(tr)
	var wrong int64
	var h *repro.SPHybrid
	var prev *repro.Node // safe: single-worker run is sequential
	h = repro.NewSPHybrid(tr, func(w int, u *repro.Node) {
		if prev != nil && prev != u {
			rel := o.Relate(prev, u)
			if h.Precedes(prev, u) != (rel == repro.Precedes) {
				wrong++
			}
		}
		prev = u
		runtime.Gosched()
	})
	h.Run(1, 42)
	if wrong != 0 {
		t.Fatalf("%d wrong answers", wrong)
	}
}

// TestLockAwareFacade integrates the facade's lock workload with the
// monitor's lock-aware detection.
func TestLockAwareFacade(t *testing.T) {
	tr, _, unprotected := repro.LockProtected(4, repro.NewRand(3))
	if got := detect(tr, sp.WithLockAwareness(true)); got != fmt.Sprint([]int{unprotected}) {
		t.Fatalf("lock-aware flagged %v", got)
	}
}

// TestDagViewIntegration round-trips the paper example through the dag.
func TestDagViewIntegration(t *testing.T) {
	tr := repro.PaperExample()
	d := tr.ToDag()
	back, err := d.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	if back.Work() != tr.Work() || back.Span() != tr.Span() {
		t.Fatal("dag round trip changed work/span")
	}
}

// TestNaiveLockedBaseline integrates the Section 3 strawman — one
// sp-order structure under one mutex, driven by real goroutines — with
// the oracle: every pair of threads relates as the LCA says.
func TestNaiveLockedBaseline(t *testing.T) {
	tr := repro.FibTree(8, 1)
	o := repro.NewOracle(tr)
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	ids := sp.ReplayParallel(tr, m, 4)
	threads := tr.Threads()
	for i, u := range threads {
		for _, v := range threads[i+1:] {
			a, b := ids.Leaf(u), ids.Leaf(v)
			if a == b {
				continue // one serial block
			}
			rel := o.Relate(u, v)
			if m.Precedes(a, b) != (rel == repro.Precedes) || m.Parallel(a, b) != (rel == repro.Parallel) {
				t.Fatalf("locked SP-order wrong on (%s,%s): oracle %v", u, v, rel)
			}
		}
	}
}

// TestNaiveLockedSerialReplay checks the Section 3 strawman under a
// serial replay: every pair of threads relates as the LCA says, and
// each structural event takes the monitor's one lock, counted by
// sp_monitor_events_total.
func TestNaiveLockedSerialReplay(t *testing.T) {
	tr := repro.PaperExample()
	o := repro.NewOracle(tr)
	reg := metrics.NewRegistry()
	m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithMetrics(reg))
	ids := sp.Replay(tr, m)
	for _, u := range tr.Threads() {
		for _, v := range tr.Threads() {
			a, b := ids.Leaf(u), ids.Leaf(v)
			if a == b {
				continue
			}
			rel := o.Relate(u, v)
			if m.Precedes(a, b) != (rel == repro.Precedes) || m.Parallel(a, b) != (rel == repro.Parallel) {
				t.Fatalf("locked SP-order wrong on (%s,%s): oracle %v", u, v, rel)
			}
		}
	}
	if reg.Snapshot().Sum("sp_monitor_events_total") == 0 {
		t.Fatal("lock counter must move")
	}
}

// TestNaiveLockedConcurrentQueries checks thread safety: a parallel
// replay of 64 mutually parallel threads, then concurrent queries from
// eight goroutines (run with -race).
func TestNaiveLockedConcurrentQueries(t *testing.T) {
	tr := repro.BalancedPTree(6, 1)
	o := repro.NewOracle(tr)
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	ids := sp.ReplayParallel(tr, m, 4)
	threads := tr.Threads()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 500; k++ {
				u, v := threads[rng.Intn(len(threads))], threads[rng.Intn(len(threads))]
				if u == v {
					continue
				}
				rel := o.Relate(u, v)
				if m.Precedes(ids.Leaf(u), ids.Leaf(v)) != (rel == repro.Precedes) {
					errs <- "precedes mismatch"
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestFullHistoryAgreesOnFacadeWorkloads ties the ground-truth checker to
// the buggy/fixed vector workload.
func TestFullHistoryAgreesOnFacadeWorkloads(t *testing.T) {
	bad := repro.VectorAccumulate(6, true)
	truth := fmt.Sprint(race.FullHistory(bad).Locations)
	if det := detect(bad, sp.WithBackend("sp-order")); det != truth {
		t.Fatalf("detector %v, truth %v", det, truth)
	}
	good := repro.VectorAccumulate(6, false)
	if len(race.FullHistory(good).Locations) != 0 {
		t.Fatal("correct program must be race-free")
	}
}
