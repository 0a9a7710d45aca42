package sp_test

import (
	"fmt"

	"repro"
	"repro/sp"
)

// ExampleReplay runs the paper's motivating bug through the four serial
// backends of Figure 3: a parallel loop fills a vector while a reduction
// spawned in parallel with it reads every cell. Each backend reports the
// same racy cells; they differ only in cost.
func ExampleReplay() {
	buggy := repro.VectorAccumulate(4, true)
	for _, backend := range []string{"sp-order", "sp-bags", "english-hebrew", "offset-span"} {
		m := sp.MustMonitor(sp.WithBackend(backend))
		sp.Replay(buggy, m)
		fmt.Printf("%-15s racy cells %v\n", backend, m.Report().Locations)
	}
	// Output:
	// sp-order        racy cells [0 1 2 3]
	// sp-bags         racy cells [0 1 2 3]
	// english-hebrew  racy cells [0 1 2 3]
	// offset-span     racy cells [0 1 2 3]
}

// ExampleWithLockAwareness shows that partial protection is not
// protection: two parallel writers holding different mutexes still race
// under the ALL-SETS protocol, while a common mutex suppresses the race.
func ExampleWithLockAwareness() {
	writers := func(lockA, lockB int) *repro.Tree {
		a := repro.NewLeaf("a", 1)
		a.Steps = []repro.Step{repro.Acq(lockA), repro.W(9), repro.Rel(lockA)}
		b := repro.NewLeaf("b", 1)
		b.Steps = []repro.Step{repro.Acq(lockB), repro.W(9), repro.Rel(lockB)}
		return repro.MustTree(repro.NewP(a, b))
	}
	for _, locks := range [][2]int{{1, 2}, {1, 1}} {
		m := sp.MustMonitor(sp.WithLockAwareness(true))
		sp.Replay(writers(locks[0], locks[1]), m)
		rep := m.Report()
		fmt.Printf("m%d and m%d: %d races\n", locks[0], locks[1], len(rep.Races))
		for _, r := range rep.Races {
			fmt.Println(" ", r)
		}
	}
	// Output:
	// m1 and m2: 1 races
	//   write-write race on x9 between a{m1} and b{m2}
	// m1 and m1: 0 races
}

// ExampleMonitor_Relation replays the program a; (b ∥ c); d through an
// SP-order monitor and queries it: a precedes d, and b and c, the two
// branches of the fork, are parallel.
func ExampleMonitor_Relation() {
	a, b := repro.NewLeaf("a", 1), repro.NewLeaf("b", 1)
	c, d := repro.NewLeaf("c", 1), repro.NewLeaf("d", 1)
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	ids := sp.Replay(repro.MustTree(repro.Seq(a, repro.NewP(b, c), d)), m)

	fmt.Println("a, d:", m.Relation(ids.Leaf(a), ids.Leaf(d)))
	fmt.Println("b, c:", m.Relation(ids.Leaf(b), ids.Leaf(c)))
	fmt.Println("b ≺ c:", m.Precedes(ids.Leaf(b), ids.Leaf(c)))
	// Output:
	// a, d: precedes
	// b, c: parallel
	// b ≺ c: false
}
