package sp_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/spt"
	"repro/sp"
)

// oracleRel maps the LCA oracle's answer onto the monitor's relation.
var oracleRel = map[spt.Relation]sp.Relation{spt.Precedes: sp.Precedes, spt.Follows: sp.Follows, spt.Parallel: sp.Parallel}

// checkAgainstOracle replays tree tr through a fresh monitor on backend
// and checks each answer against the LCA oracle: on the fly, every
// executed leaf against the current one (the query every backend
// answers), and after the run every ordered pair of leaves on the
// backends with FullQueries. Leaves sharing one serial block (one event
// thread) are skipped: the monitor relates them as Same.
func checkAgainstOracle(t *testing.T, tr *spt.Tree, backend string) {
	t.Helper()
	o := spt.NewOracle(tr)
	m := sp.MustMonitor(sp.WithBackend(backend), sp.WithRaceDetection(false))
	ids := map[*spt.Node]sp.ThreadID{}
	check := func(u, v *spt.Node, when string) {
		t.Helper()
		if a, b := ids[u], ids[v]; a != b {
			if got, rel := m.Relation(a, b), o.Relate(u, v); got != oracleRel[rel] {
				t.Fatalf("%s %s: Relation(%s, %s) = %v, oracle %v", backend, when, u, v, got, rel)
			}
		}
	}
	var done []*spt.Node
	sp.ReplayObserved(tr, m, func(u *spt.Node, id sp.ThreadID) {
		ids[u] = id
		for _, v := range done {
			check(v, u, "on the fly")
		}
		done = append(done, u)
	})
	if !m.Backend().FullQueries {
		return
	}
	for _, u := range done {
		for _, v := range done {
			check(u, v, "after the run")
		}
	}
}

// randomTrees returns n random programs of 2..2+size leaves from seed,
// cycling the P-node probability through pprobs.
func randomTrees(seed int64, n, size int, pprobs ...float64) []*spt.Tree {
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*spt.Tree, n)
	for i := range trees {
		cfg := spt.DefaultGenConfig(2 + rng.Intn(size))
		cfg.PProb = pprobs[i%len(pprobs)]
		trees[i] = spt.Generate(cfg, rng)
	}
	return trees
}

// TestBackendsMatchOracleOnShapes replays the paper's example and the
// structurally extreme shapes through every registered backend.
func TestBackendsMatchOracleOnShapes(t *testing.T) {
	shapes := []struct {
		name string
		tree *spt.Tree
	}{
		{"paper", spt.PaperExample()},
		{"chain", spt.DeepChain(30, 1)},
		{"fan", spt.WideFan(30, 1)},
		{"balanced", spt.BalancedPTree(5, 1)},
		{"fib", spt.FibTree(8, 1)},
		{"blocks", spt.SyncBlockChain(4, 4, 1)},
	}
	for _, backend := range sp.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) { checkAgainstOracle(t, sh.tree, backend) })
			}
		})
	}
}

func TestSPOrderMatchesOracleRandom(t *testing.T) {
	for _, tr := range randomTrees(17, 20, 60, 0.2, 0.5, 0.8) {
		checkAgainstOracle(t, tr, "sp-order")
	}
}

func TestSPBagsMatchesOracleRandom(t *testing.T) {
	for _, tr := range randomTrees(23, 20, 50, 0.2, 0.5, 0.8) {
		checkAgainstOracle(t, tr, "sp-bags")
	}
}

func TestBothLabelersOnRandomTrees(t *testing.T) {
	for _, tr := range randomTrees(21, 30, 50, 0.15, 0.5, 0.85) {
		checkAgainstOracle(t, tr, "english-hebrew")
		checkAgainstOracle(t, tr, "offset-span")
	}
}

// TestQuickSPOrderAndSPBagsAgree replays each random program through
// sp-order, then through sp-bags, and compares sp-bags' current-thread
// answers with sp-order's full queries on sampled earlier leaves.
func TestQuickSPOrderAndSPBagsAgree(t *testing.T) {
	f := func(seed int64, n uint8, pp uint8) bool {
		cfg := spt.DefaultGenConfig(int(n)%40 + 2)
		cfg.PProb = float64(pp%101) / 100
		tr := spt.Generate(cfg, rand.New(rand.NewSource(seed)))
		order := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithRaceDetection(false))
		oids := sp.Replay(tr, order)
		bags := sp.MustMonitor(sp.WithBackend("sp-bags"), sp.WithRaceDetection(false))
		rng := rand.New(rand.NewSource(seed + 1))
		agree := true
		var done []*spt.Node
		bids := map[*spt.Node]sp.ThreadID{}
		sp.ReplayObserved(tr, bags, func(u *spt.Node, id sp.ThreadID) {
			bids[u] = id
			for k := 0; k < 5 && len(done) > 0; k++ {
				v := done[rng.Intn(len(done))]
				if bags.Relation(bids[v], id) != order.Relation(oids.Leaf(v), oids.Leaf(u)) {
					agree = false
				}
			}
			done = append(done, u)
		})
		return agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLabelersMatchOracle(t *testing.T) {
	f := func(seed int64, n uint8, pp uint8) bool {
		cfg := spt.DefaultGenConfig(int(n)%40 + 2)
		cfg.PProb = float64(pp%101) / 100
		tr := spt.Generate(cfg, rand.New(rand.NewSource(seed)))
		o := spt.NewOracle(tr)
		eh := sp.MustMonitor(sp.WithBackend("english-hebrew"), sp.WithRaceDetection(false))
		ehIDs := sp.Replay(tr, eh)
		os := sp.MustMonitor(sp.WithBackend("offset-span"), sp.WithRaceDetection(false))
		osIDs := sp.Replay(tr, os)
		threads := tr.Threads()
		rng := rand.New(rand.NewSource(seed + 1))
		for k := 0; k < 60; k++ {
			u, v := threads[rng.Intn(len(threads))], threads[rng.Intn(len(threads))]
			if ehIDs.Leaf(u) == ehIDs.Leaf(v) {
				continue
			}
			want := oracleRel[o.Relate(u, v)]
			if eh.Relation(ehIDs.Leaf(u), ehIDs.Leaf(v)) != want || os.Relation(osIDs.Leaf(u), osIDs.Leaf(v)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSPOrderFlexibleUnfolding exercises the end-of-Section-2 remark:
// the parse tree may unfold in any order that creates a thread before
// its events and runs an S-node's left subtree before its right. Each
// step picks a random ready subtree, so P-branches interleave
// arbitrarily, and sp-order must still agree with the oracle.
func TestSPOrderFlexibleUnfolding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tr := range randomTrees(5, 10, 40, 0.9) { // P-heavy, so the order diverges from depth-first
		o := spt.NewOracle(tr)
		m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithRaceDetection(false))
		ids := map[*spt.Node]sp.ThreadID{}
		type task struct {
			n    *spt.Node
			cur  sp.ThreadID
			done func(sp.ThreadID) // receives the subtree's terminal thread
		}
		ready := []task{{tr.Root(), m.Main(), func(sp.ThreadID) {}}}
		push := func(tk task) { ready = append(ready, tk) }
		for len(ready) > 0 {
			i := rng.Intn(len(ready))
			tk := ready[i]
			ready[i] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			switch tk.n.Kind() {
			case spt.Leaf:
				m.Begin(tk.cur)
				ids[tk.n] = tk.cur
				tk.done(tk.cur)
			case spt.SNode:
				push(task{tk.n.Left(), tk.cur, func(c sp.ThreadID) { push(task{tk.n.Right(), c, tk.done}) }})
			default: // PNode
				l, r := m.Fork(tk.cur)
				var a, b sp.ThreadID
				pending := 2
				finish := func() {
					if pending--; pending == 0 {
						tk.done(m.Join(a, b))
					}
				}
				push(task{tk.n.Left(), l, func(c sp.ThreadID) { a = c; finish() }})
				push(task{tk.n.Right(), r, func(c sp.ThreadID) { b = c; finish() }})
			}
		}
		threads := tr.Threads()
		for _, u := range threads {
			for _, v := range threads {
				if ids[u] == ids[v] {
					continue
				}
				if got, rel := m.Relation(ids[u], ids[v]), o.Relate(u, v); got != oracleRel[rel] {
					t.Fatalf("random unfolding: Relation(%s, %s) = %v, oracle %v", u, v, got, rel)
				}
			}
		}
	}
}

// queryBeforeBeginPanics forks main on a fresh backend monitor and
// queries the two branches, neither of which has begun.
func queryBeforeBeginPanics(t *testing.T, backend string) {
	t.Helper()
	m := sp.MustMonitor(sp.WithBackend(backend))
	l, r := m.Fork(m.Main())
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic for a query on threads that have not begun", backend)
		}
	}()
	m.Relation(l, r)
}

func TestSPBagsQueryUnexecutedPanics(t *testing.T) { queryBeforeBeginPanics(t, "sp-bags") }

func TestSPOrderImplicitQueryBeforeExecPanics(t *testing.T) {
	queryBeforeBeginPanics(t, "sp-order-implicit")
}
