package sp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/om"
	"repro/internal/spt"
)

// listOrder returns the threads in the order their items appear in l.
func listOrder(l *om.List, items []*om.Item) []ThreadID {
	var order []ThreadID
	for _, it := range l.Items() {
		order = append(order, ThreadID(slices.Index(items, it)))
	}
	return order
}

// TestSPOrderPNodeOrder pins Figure 7: a fork grows S(u, P(l, r)) at
// u's position, after which English holds u, l, r and Hebrew holds
// u, r, l, so the two branches are parallel.
func TestSPOrderPNodeOrder(t *testing.T) {
	s := newSPOrder().(*spOrder)
	s.Start(0)
	s.Fork(0, 1, 2)
	if got := listOrder(s.eng, s.engIt); !slices.Equal(got, []ThreadID{0, 1, 2}) {
		t.Fatalf("English order after fork = %v, want [0 1 2]", got)
	}
	if got := listOrder(s.heb, s.hebIt); !slices.Equal(got, []ThreadID{0, 2, 1}) {
		t.Fatalf("Hebrew order after fork = %v, want [0 2 1]", got)
	}
	if !s.Parallel(1, 2) || !s.Parallel(2, 1) || s.Precedes(1, 2) || s.Precedes(2, 1) {
		t.Fatal("fork branches must be parallel and unordered")
	}
}

// TestSPOrderSNodeOrder pins Figure 6: a join puts the continuation in
// series after the P-subtree, last in both orders, so every earlier
// thread precedes it.
func TestSPOrderSNodeOrder(t *testing.T) {
	s := newSPOrder().(*spOrder)
	s.Start(0)
	s.Fork(0, 1, 2)
	s.Join(1, 2, 3)
	if got := listOrder(s.eng, s.engIt); !slices.Equal(got, []ThreadID{0, 1, 2, 3}) {
		t.Fatalf("English order after join = %v, want [0 1 2 3]", got)
	}
	if got := listOrder(s.heb, s.hebIt); !slices.Equal(got, []ThreadID{0, 2, 1, 3}) {
		t.Fatalf("Hebrew order after join = %v, want [0 2 1 3]", got)
	}
	for _, u := range []ThreadID{0, 1, 2} {
		if !s.Precedes(u, 3) || s.Parallel(u, 3) {
			t.Fatalf("t%d must precede the join continuation", u)
		}
	}
}

// replayLabels replays tr through an english-hebrew monitor and returns
// its backend with the leaf-to-thread map.
func replayLabels(tr *spt.Tree) (*englishHebrew, ReplayIDs) {
	m := MustMonitor(WithBackend("english-hebrew"), WithRaceDetection(false))
	ids := Replay(tr, m)
	return m.backend.(*englishHebrew), ids
}

// walkThreads maps leaves, in walk order, to their event threads,
// dropping repeats of a serial block's thread.
func walkThreads(leaves []*spt.Node, ids ReplayIDs) []ThreadID {
	var out []ThreadID
	for _, u := range leaves {
		if id := ids.Leaf(u); len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// TestEnglishLabelIsExecutionIndex checks that the English half of the
// scheme is the thread's position in the English (execution) walk.
func TestEnglishLabelIsExecutionIndex(t *testing.T) {
	tr := spt.PaperExample()
	eh, ids := replayLabels(tr)
	for i, id := range walkThreads(tr.EnglishOrder(), ids) {
		if eh.eng[id] != int64(i+1) {
			t.Fatalf("English label of t%d = %d, want %d", id, eh.eng[id], i+1)
		}
	}
}

// TestHebrewLabelsMatchHebrewWalk checks that the Hebrew vectors, sorted,
// order threads exactly as the Hebrew walk does.
func TestHebrewLabelsMatchHebrewWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		tr := spt.Generate(spt.DefaultGenConfig(2+rng.Intn(40)), rng)
		eh, ids := replayLabels(tr)
		order := walkThreads(tr.HebrewOrder(), ids)
		for i := 0; i+1 < len(order); i++ {
			u, v := order[i], order[i+1]
			if slices.Compare(eh.heb[u], eh.heb[v]) >= 0 {
				t.Fatalf("trial %d: Hebrew labels out of order at %d: %v !< %v", trial, i, eh.heb[u], eh.heb[v])
			}
		}
	}
}
