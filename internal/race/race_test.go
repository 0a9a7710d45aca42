package race

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
)

// The serial detection tests replay each tree through an sp.Monitor on
// every registered backend and hold the result to FullHistory or to the
// workload's planted ground truth.
var allBackends = sp.BackendNames()

// detect replays tr serially on the named backend.
func detect(tr *spt.Tree, backend string, opts ...sp.Option) sp.Report {
	m := sp.MustMonitor(append([]sp.Option{sp.WithBackend(backend)}, opts...)...)
	sp.Replay(tr, m)
	return m.Report()
}

// locations converts a monitor report's raced addresses to the int
// locations FullHistory and the workloads use.
func locations(rep sp.Report) []int {
	out := []int{}
	for _, a := range rep.Locations {
		out = append(out, int(a))
	}
	return out
}

func TestAccessKindStrings(t *testing.T) {
	if WriteWrite.String() != "write-write" || WriteRead.String() != "write-read" ||
		ReadWrite.String() != "read-write" {
		t.Fatal("AccessKind strings wrong")
	}
}

// TestObviousRace: two parallel writers to one location.
func TestObviousRace(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.W(0)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.W(0)}
	tr := spt.MustTree(spt.NewP(a, b))
	for _, backend := range allBackends {
		rep := detect(tr, backend)
		if len(rep.Races) != 1 {
			t.Fatalf("%v: races = %d, want 1", backend, len(rep.Races))
		}
		if rep.Races[0].Kind != WriteWrite || rep.Races[0].Addr != 0 {
			t.Fatalf("%v: wrong race %v", backend, rep.Races[0])
		}
	}
}

// TestNoRaceWhenSerial: same accesses composed in series.
func TestNoRaceWhenSerial(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.W(0)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.W(0), spt.R(0)}
	tr := spt.MustTree(spt.NewS(a, b))
	for _, backend := range allBackends {
		if rep := detect(tr, backend); len(rep.Races) != 0 {
			t.Fatalf("%v: unexpected races %v", backend, rep.Races)
		}
	}
}

func TestReadSharingIsSafe(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.R(0)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.R(0)}
	tr := spt.MustTree(spt.NewP(a, b))
	for _, backend := range allBackends {
		if rep := detect(tr, backend); len(rep.Races) != 0 {
			t.Fatalf("%v: read sharing flagged: %v", backend, rep.Races)
		}
	}
}

func TestWriteReadAndReadWriteKinds(t *testing.T) {
	// writer ∥ reader: write happens first in serial replay order.
	w := spt.NewLeaf("w", 1)
	w.Steps = []spt.Step{spt.W(0)}
	r := spt.NewLeaf("r", 1)
	r.Steps = []spt.Step{spt.R(0)}
	tr := spt.MustTree(spt.NewP(w, r))
	rep := detect(tr, "sp-order")
	if len(rep.Races) != 1 || rep.Races[0].Kind != WriteRead {
		t.Fatalf("want one write-read race, got %v", rep.Races)
	}
	// reader first, then parallel writer.
	r2 := spt.NewLeaf("r2", 1)
	r2.Steps = []spt.Step{spt.R(0)}
	w2 := spt.NewLeaf("w2", 1)
	w2.Steps = []spt.Step{spt.W(0)}
	tr2 := spt.MustTree(spt.NewP(r2, w2))
	rep2 := detect(tr2, "sp-order")
	if len(rep2.Races) != 1 || rep2.Races[0].Kind != ReadWrite {
		t.Fatalf("want one read-write race, got %v", rep2.Races)
	}
}

// TestVectorAccumulate pins the intro workload: the correct version is
// race-free, the buggy version races on every output cell.
func TestVectorAccumulate(t *testing.T) {
	good := workload.VectorAccumulate(8, false)
	for _, backend := range allBackends {
		if rep := detect(good, backend); len(rep.Races) != 0 {
			t.Fatalf("%v: correct program flagged: %v", backend, rep.Races)
		}
	}
	bad := workload.VectorAccumulate(8, true)
	for _, backend := range allBackends {
		rep := detect(bad, backend)
		if len(rep.Locations) != 8 {
			t.Fatalf("%v: raced locations = %v, want all 8 outputs", backend, rep.Locations)
		}
	}
}

// TestDetectorsMatchFullHistory is the core soundness/completeness
// property (the Feng–Leiserson guarantee): the set of locations flagged
// by each detector equals the set of locations with at least one true
// race, on random programs.
func TestDetectorsMatchFullHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		cfg := spt.DefaultGenConfig(2 + rng.Intn(40))
		cfg.PProb = []float64{0.3, 0.6, 0.9}[trial%3]
		cfg.Steps = 6
		cfg.Locations = 8
		cfg.WriteFrac = 0.4
		tr := spt.Generate(cfg, rng)
		truth := FullHistory(tr)
		for _, backend := range allBackends {
			rep := detect(tr, backend)
			if !reflect.DeepEqual(locations(rep), truth.Locations) {
				t.Fatalf("trial %d %v: flagged %v, truth %v",
					trial, backend, rep.Locations, truth.Locations)
			}
		}
	}
}

func TestQuickDetectorLocationSets(t *testing.T) {
	f := func(seed int64, n uint8, pp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := spt.DefaultGenConfig(int(n)%30 + 2)
		cfg.PProb = float64(pp%101) / 100
		cfg.Steps = 4
		cfg.Locations = 6
		cfg.WriteFrac = 0.5
		tr := spt.Generate(cfg, rng)
		truth := FullHistory(tr).Locations
		for _, backend := range allBackends {
			if !reflect.DeepEqual(locations(detect(tr, backend)), truth) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlantedRacesFoundExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		p := workload.PlantRaces(workload.DefaultPlantConfig(), rng)
		for _, backend := range allBackends {
			rep := detect(p.Tree, backend)
			if !reflect.DeepEqual(locations(rep), p.RacyLocs) {
				t.Fatalf("trial %d %v: flagged %v, planted %v",
					trial, backend, rep.Locations, p.RacyLocs)
			}
		}
	}
}

func TestParallelDetectorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 6; trial++ {
		p := workload.PlantRaces(workload.DefaultPlantConfig(), rng)
		canon, _ := spt.Canonicalize(p.Tree)
		for _, workers := range []int{1, 2, 4} {
			rep := DetectParallel(canon, workers, int64(trial), true)
			if !reflect.DeepEqual(rep.Locations, p.RacyLocs) {
				t.Fatalf("trial %d P=%d: flagged %v, planted %v",
					trial, workers, rep.Locations, p.RacyLocs)
			}
		}
	}
}

func TestParallelDetectorUnderSteals(t *testing.T) {
	// Force a workload big enough to split and verify ground truth
	// still holds.
	rng := rand.New(rand.NewSource(9))
	cfg := workload.DefaultPlantConfig()
	cfg.Threads = 256
	cfg.RacyLocations = 16
	cfg.SafeLocations = 16
	for seed := int64(0); seed < 10; seed++ {
		p := workload.PlantRaces(cfg, rng)
		canon, _ := spt.Canonicalize(p.Tree)
		rep := DetectParallel(canon, 4, seed, true)
		if !reflect.DeepEqual(rep.Locations, p.RacyLocs) {
			t.Fatalf("seed %d: flagged %v, planted %v", seed, rep.Locations, p.RacyLocs)
		}
		if rep.Stats.Splits > 0 {
			return // at least one run exercised real splits
		}
	}
	t.Skip("no splits observed; single-CPU scheduling too serial")
}

func TestLockAwareSuppressesProtectedRaces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, protected, unprotected := workload.LockProtected(6, rng)
	rep := detect(tr, "sp-order", sp.WithLockAwareness(true))
	if len(rep.Locations) != 1 || rep.Locations[0] != uint64(unprotected) {
		t.Fatalf("lock-aware flagged %v, want only x%d", rep.Locations, unprotected)
	}
	// The pure determinacy detector flags both locations.
	det := detect(tr, "sp-order")
	if len(det.Locations) != 2 {
		t.Fatalf("determinacy detector flagged %v, want both locations", det.Locations)
	}
	_ = protected
}

func TestLockAwarePartialOverlap(t *testing.T) {
	// Two parallel writers holding different locks: still a race.
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.Acq(1), spt.W(0), spt.Rel(1)}
	b := spt.NewLeaf("b", 1)
	b.Steps = []spt.Step{spt.Acq(2), spt.W(0), spt.Rel(2)}
	tr := spt.MustTree(spt.NewP(a, b))
	rep := detect(tr, "sp-order", sp.WithLockAwareness(true))
	if len(rep.Races) != 1 {
		t.Fatalf("disjoint locksets must race: %v", rep.Races)
	}
	// Sharing one common lock suppresses the race.
	c := spt.NewLeaf("c", 1)
	c.Steps = []spt.Step{spt.Acq(1), spt.Acq(2), spt.W(0), spt.Rel(2), spt.Rel(1)}
	d := spt.NewLeaf("d", 1)
	d.Steps = []spt.Step{spt.Acq(1), spt.W(0), spt.Rel(1)}
	tr2 := spt.MustTree(spt.NewP(c, d))
	if rep2 := detect(tr2, "sp-order", sp.WithLockAwareness(true)); len(rep2.Races) != 0 {
		t.Fatalf("common lock must suppress the race: %v", rep2.Races)
	}
}

func TestLockAwareReleaseUnheldPanics(t *testing.T) {
	a := spt.NewLeaf("a", 1)
	a.Steps = []spt.Step{spt.Rel(3)}
	tr := spt.MustTree(spt.NewS(a, spt.NewLeaf("b", 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	detect(tr, "sp-order", sp.WithLockAwareness(true))
}

func TestReportCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := workload.FibWithAccesses(8, 4, 16, true, rng)
	rep := detect(tr, "sp-order")
	if rep.Accesses == 0 {
		t.Fatal("accesses not counted")
	}
	wantAccesses := int64(0)
	for _, l := range tr.Threads() {
		wantAccesses += int64(len(l.Steps))
	}
	if rep.Accesses != wantAccesses {
		t.Fatalf("accesses = %d, want %d", rep.Accesses, wantAccesses)
	}
}

func TestFibPrivateAccessesRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := workload.FibWithAccesses(9, 3, 0, false, rng)
	for _, backend := range allBackends {
		if rep := detect(tr, backend); len(rep.Races) != 0 {
			t.Fatalf("%v: private accesses raced: %v", backend, rep.Races)
		}
	}
}

func TestRaceString(t *testing.T) {
	a, b := spt.NewLeaf("a", 1), spt.NewLeaf("b", 1)
	r := Race{Loc: 7, Kind: WriteWrite, First: a, Second: b}
	if r.String() != "write-write race on x7 between a and b" {
		t.Fatalf("Race.String() = %q", r.String())
	}
}

// naive is Section 3's naive locked baseline: one sp-order structure
// shared by every worker, each event applied under the monitor's one
// mutex.
func naive(tr *spt.Tree, workers int) sp.Report {
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	sp.ReplayParallel(tr, m, workers)
	return m.Report()
}

func TestNaiveParallelDetectorMatchesPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 5; trial++ {
		p := workload.PlantRaces(workload.DefaultPlantConfig(), rng)
		for _, workers := range []int{1, 4} {
			rep := naive(p.Tree, workers)
			if !reflect.DeepEqual(locations(rep), p.RacyLocs) {
				t.Fatalf("trial %d P=%d: flagged %v, planted %v",
					trial, workers, rep.Locations, p.RacyLocs)
			}
		}
	}
}

func TestNaiveAndHybridAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	cfg := workload.DefaultPlantConfig()
	cfg.Threads = 128
	p := workload.PlantRaces(cfg, rng)
	canon, _ := spt.Canonicalize(p.Tree)
	n := locations(naive(canon, 4))
	hybrid := DetectParallel(canon, 4, 1, true)
	if !reflect.DeepEqual(n, hybrid.Locations) {
		t.Fatalf("naive %v != hybrid %v", n, hybrid.Locations)
	}
}
