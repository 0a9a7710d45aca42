// Package race holds the two tree-replay detectors that have no event
// API counterpart in package sp: DetectParallel, the on-the-fly
// determinacy-race detector of Bender et al. (SPAA 2004) driven by the
// work-stealing scheduler and the scheduler-coupled SP-hybrid (the
// source of the paper's steal, split and retry statistics), and
// FullHistory, the quadratic ground-truth checker every detector is
// tested against.
//
// A determinacy race occurs when two logically parallel threads access
// the same shared-memory location and at least one access is a write.
// DetectParallel applies the Nondeterminator shadow-memory protocol of
// internal/shadow (last writer plus the English- and Hebrew-maximal
// readers per location). Serial, lock-aware and locked-baseline
// detection replay a tree through an sp.Monitor instead: sp.Replay or
// sp.ReplayParallel with a registry backend.
package race

import (
	"fmt"
	"sort"

	"repro/internal/shadow"
	"repro/internal/spt"
)

// AccessKind distinguishes the two accesses of a reported race.
type AccessKind = shadow.AccessKind

// Access patterns, re-exported from the shared shadow protocol.
const (
	// WriteWrite: both accesses are writes.
	WriteWrite = shadow.WriteWrite
	// WriteRead: the earlier access is a write, the later a read.
	WriteRead = shadow.WriteRead
	// ReadWrite: the earlier access is a read, the later a write.
	ReadWrite = shadow.ReadWrite
)

// Race records one detected determinacy race: two logically parallel
// threads touching the same location, at least one writing.
type Race struct {
	Loc    int
	Kind   AccessKind
	First  *spt.Node // the previously recorded accessor
	Second *spt.Node // the currently executing thread
}

// String renders the race for reports.
func (r Race) String() string {
	return fmt.Sprintf("%s race on x%d between %s and %s", r.Kind, r.Loc, r.First, r.Second)
}

// Report is the outcome of a detection run.
type Report struct {
	Races []Race
	// Locations is the deduplicated, sorted set of raced locations.
	Locations []int
	// Accesses counts replayed memory accesses; Queries counts SP
	// queries issued.
	Accesses int64
	Queries  int64
}

func buildReport(races []Race, accesses, queries int64) Report {
	locSet := map[int]bool{}
	for _, r := range races {
		locSet[r.Loc] = true
	}
	locs := make([]int, 0, len(locSet))
	for l := range locSet {
		locs = append(locs, l)
	}
	sort.Ints(locs)
	return Report{Races: races, Locations: locs, Accesses: accesses, Queries: queries}
}

// FullHistory is the exhaustive ground-truth checker: it records every
// access to every location and reports a race for each parallel
// conflicting pair (quadratic; tests only). Ground truth uses the LCA
// oracle directly, and threads run in the serial left-to-right order.
func FullHistory(t *spt.Tree) Report {
	o := spt.NewOracle(t)
	type access struct {
		u     *spt.Node
		write bool
	}
	hist := map[int][]access{}
	var races []Race
	var accesses int64
	for _, u := range t.Threads() {
		for _, st := range u.Steps {
			if st.Op != spt.Read && st.Op != spt.Write {
				continue
			}
			accesses++
			w := st.Op == spt.Write
			for _, a := range hist[st.Loc] {
				if !(w || a.write) || a.u == u || o.Relate(a.u, u) != spt.Parallel {
					continue
				}
				kind := WriteWrite
				switch {
				case a.write && !w:
					kind = WriteRead
				case !a.write && w:
					kind = ReadWrite
				}
				races = append(races, Race{Loc: st.Loc, Kind: kind, First: a.u, Second: u})
			}
			hist[st.Loc] = append(hist[st.Loc], access{u, w})
		}
	}
	return buildReport(races, accesses, 0)
}
