package race

import (
	"reflect"
	"testing"

	"repro/internal/shadow"
	"repro/internal/spt"
)

// maskedReaderTree builds P(r1, S(r2, w)) on one location: r1 ∥
// everything, r2 ≺ w. English order r1, r2, w; Hebrew order r2, w, r1.
func maskedReaderTree() (tr *spt.Tree, r1, r2, w *spt.Node) {
	r1 = spt.NewLeaf("r1", 1)
	r1.Steps = []spt.Step{spt.R(0)}
	r2 = spt.NewLeaf("r2", 1)
	r2.Steps = []spt.Step{spt.R(0)}
	w = spt.NewLeaf("w", 1)
	w.Steps = []spt.Step{spt.W(0)}
	return spt.MustTree(spt.NewP(r1, spt.NewS(r2, w))), r1, r2, w
}

// indexRel answers the shadow protocol's queries against thread cur from
// the tree's English and Hebrew indices (Figure 4): u ≺ cur iff u is
// before cur in both orders, u ∥ cur iff the orders disagree.
type indexRel struct {
	eng, heb []int
	cur      *spt.Node
}

func (r indexRel) EnglishBeforeCurrent(u *spt.Node) bool { return r.eng[u.ID] < r.eng[r.cur.ID] }
func (r indexRel) HebrewBeforeCurrent(u *spt.Node) bool  { return r.heb[u.ID] < r.heb[r.cur.ID] }
func (r indexRel) PrecedesCurrent(u *spt.Node) bool {
	return r.EnglishBeforeCurrent(u) && r.HebrewBeforeCurrent(u)
}
func (r indexRel) ParallelCurrent(u *spt.Node) bool {
	return r.EnglishBeforeCurrent(u) != r.HebrewBeforeCurrent(u)
}

// TestOrderedReplayCatchesMaskedReader mirrors internal/shadow's
// TestOrderedProtocolCatchesMaskedReader through the tree's real English
// and Hebrew orders instead of scripted ones: under the feasible
// concurrent execution order r2, r1, w the one-reader discipline masks
// the racy reader r1, while the two-reader protocol the parallel
// detectors use retains r1 as the Hebrew-max reader and flags r1 ∥ w.
// This is the completeness gap shadow.AccessOrdered closes.
func TestOrderedReplayCatchesMaskedReader(t *testing.T) {
	tr, r1, r2, w := maskedReaderTree()
	eng, heb := tr.EnglishHebrewIndex()
	rel := func(cur *spt.Node) indexRel { return indexRel{eng: eng, heb: heb, cur: cur} }

	// One-reader protocol under the adversarial order: misses. This
	// documents WHY the detectors had to move off shadow.Access.
	var q int64
	serial := &shadow.Cell[*spt.Node]{}
	shadow.OnAccess(serial, rel(r2), r2, nil, false, &q)
	shadow.OnAccess(serial, rel(r1), r1, nil, false, &q)
	if f := shadow.OnAccess(serial, rel(w), w, nil, true, &q); f != nil {
		t.Fatalf("one-reader protocol unexpectedly caught the race (%+v); update this test's premise", f)
	}

	// Two-reader ordered protocol through the same rel: catches r1 ∥ w.
	ordered := &shadow.Cell[*spt.Node]{}
	if f := shadow.OnAccessOrdered(ordered, rel(r2), r2, nil, false, &q); f != nil {
		t.Fatalf("first read raced: %+v", f)
	}
	if f := shadow.OnAccessOrdered(ordered, rel(r1), r1, nil, false, &q); f != nil {
		t.Fatalf("second read raced: %+v", f)
	}
	f := shadow.OnAccessOrdered(ordered, rel(w), w, nil, true, &q)
	if f == nil || f.Kind != ReadWrite || f.Prev != r1 {
		t.Fatalf("ordered protocol found %+v, want read-write vs r1", f)
	}
}

// TestParallelDetectorsCompleteOnMaskedReader runs the masked-reader
// program through the scheduler-coupled detector and the naive locked
// baseline across seeds and worker counts: with the two-reader protocol
// the r1 ∥ w race must be reported under EVERY schedule, including the
// ones where r2 executes before r1 (which the old one-reader discipline
// could miss).
func TestParallelDetectorsCompleteOnMaskedReader(t *testing.T) {
	tr, _, _, _ := maskedReaderTree()
	canon, _ := spt.Canonicalize(tr)
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			prep := DetectParallel(canon, workers, seed, true)
			if got := racedLocs(prep.Races); !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("DetectParallel(workers=%d, seed=%d): raced locations %v, want [0]",
					workers, seed, got)
			}
			if got := locations(naive(tr, workers)); !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("naive sp-order ReplayParallel(workers=%d, run %d): raced locations %v, want [0]",
					workers, seed, got)
			}
		}
	}
}

// racedLocs reduces races to the sorted set of raced locations.
func racedLocs(races []Race) []int {
	seen := map[int]bool{}
	var locs []int
	for _, r := range races {
		if !seen[r.Loc] {
			seen[r.Loc] = true
			locs = append(locs, r.Loc)
		}
	}
	for i := 1; i < len(locs); i++ {
		for j := i; j > 0 && locs[j] < locs[j-1]; j-- {
			locs[j], locs[j-1] = locs[j-1], locs[j]
		}
	}
	return locs
}
