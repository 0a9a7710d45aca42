// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded results):
//
//   - BenchmarkFig3_Creation / BenchmarkFig3_Query: the comparison table
//     of serial SP-maintenance algorithms (space per node, time per
//     thread creation, time per query) for English-Hebrew, offset-span,
//     SP-bags, and SP-order, each replayed through an sp.Monitor on its
//     registry backend.
//   - BenchmarkTheorem5_Construction: SP-order total construction time
//     versus n (the O(n) claim).
//   - BenchmarkCorollary6_RaceDetector: on-the-fly determinacy-race
//     detection cost versus T1 across all four backends (the O(T1)
//     claim for SP-order).
//   - BenchmarkTheorem10_SPHybrid / BenchmarkTheorem10_NaiveLocked: the
//     parallel algorithm versus the Section 3 strawman (sp-order under
//     sp.ReplayParallel, every event under the monitor's one mutex)
//     across worker counts, with steals, splits, query retries, and lock
//     acquisitions reported as metrics.
//   - BenchmarkSection4_LockFreeQueries: global-tier query throughput
//     while an inserter forces rebalances (retries/op = bucket B5).
//   - BenchmarkSection7_Steals: steal counts versus P·T∞ across shapes.
//   - BenchmarkOM_*: microbenchmarks of the order-maintenance structure
//     underlying everything (O(1) amortized insert, O(1) query).
//
// This host may have a single CPU; the parallel benchmarks then measure
// overhead scaling (lock traffic, steals, retries) rather than speedup,
// which EXPERIMENTS.md discusses.
package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/om"
	"repro/internal/spt"
	"repro/internal/workload"
	"repro/sp"
	"repro/sp/metrics"
)

// fig3Backends are Figure 3's four rows as registry backends.
var fig3Backends = []string{"english-hebrew", "offset-span", "sp-bags", "sp-order"}

// maintain replays tr serially through a fresh monitor on backend with
// race detection off, so only SP maintenance runs.
func maintain(tr *spt.Tree, backend string, opts ...sp.Option) (*sp.Monitor, sp.ReplayIDs) {
	m := sp.MustMonitor(append(opts, sp.WithBackend(backend), sp.WithRaceDetection(false))...)
	return m, sp.Replay(tr, m)
}

// fig3Tree returns the workload for the Figure 3 comparison: a random
// program with substantial fork nesting so the static labelers' weakness
// (label growth) is visible.
func fig3Tree(threads int) *spt.Tree {
	cfg := repro.DefaultGenConfig(threads)
	cfg.PProb = 0.7
	return repro.Generate(cfg, repro.NewRand(1))
}

func BenchmarkFig3_Creation(b *testing.B) {
	tr := fig3Tree(20000)
	for _, backend := range fig3Backends {
		b.Run(backend, func(b *testing.B) {
			reg := metrics.NewRegistry()
			for i := 0; i < b.N; i++ {
				maintain(tr, backend, sp.WithMetrics(reg))
			}
			// The labelers report their longest label; SP-bags keeps one
			// DSU node (parent+rank) and SP-order two OM items
			// (label+bucket) per thread.
			words := map[string]float64{"sp-bags": 2, "sp-order": 4}[backend]
			if w, ok := reg.Snapshot().Value("sp_label_words_highwater"); ok {
				words = w
			}
			b.ReportMetric(words, "max-label-words")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.NumThreads()), "ns/thread")
		})
	}
}

func BenchmarkFig3_Query(b *testing.B) {
	// A wide fan maximizes nesting depth d (and forks f along a path),
	// the worst case for the static labelers and the fairest
	// demonstration of SP-order's O(1). SP-bags answers queries against
	// the current thread only: the trailing thread end.
	leaves := make([]*spt.Node, 8192)
	for i := range leaves {
		leaves[i] = repro.NewLeaf(fmt.Sprintf("u%d", i), 1)
	}
	end := repro.NewLeaf("end", 1)
	tr := repro.MustTree(repro.NewS(repro.Par(leaves...), end))
	rng := repro.NewRand(2)
	pairs := make([][2]*spt.Node, 4096)
	for i := range pairs {
		pairs[i] = [2]*spt.Node{leaves[rng.Intn(len(leaves))], leaves[rng.Intn(len(leaves))]}
	}
	var sink atomic.Int64
	for _, backend := range fig3Backends {
		b.Run(backend, func(b *testing.B) {
			m, ids := maintain(tr, backend)
			full := m.Backend().FullQueries
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				u, v := ids.Leaf(p[0]), ids.Leaf(end)
				if full {
					v = ids.Leaf(p[1])
				}
				if m.Precedes(u, v) {
					sink.Add(1)
				}
			}
		})
	}
}

func BenchmarkTheorem5_Construction(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := repro.DefaultGenConfig(n)
			tr := repro.Generate(cfg, repro.NewRand(int64(n)))
			reg := metrics.NewRegistry()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				maintain(tr, "sp-order", sp.WithMetrics(reg))
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(nsPerOp/float64(n), "ns/thread")
			relabels := reg.Snapshot().Sum("sp_om_relabels_total")
			b.ReportMetric(relabels/float64(b.N)/float64(n), "relabels/thread")
		})
	}
}

func BenchmarkCorollary6_RaceDetector(b *testing.B) {
	// fib with all-reads sharing: race-free, one SP query per access,
	// T1 grows ~φ^n.
	for _, n := range []int{12, 16, 20} {
		tr := workload.ReadOnlyAccesses(repro.FibTree(n, 1), 8, 256, repro.NewRand(3))
		t1 := tr.Work()
		for _, backend := range fig3Backends {
			b.Run(fmt.Sprintf("%v/fib=%d", backend, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := sp.MustMonitor(sp.WithBackend(backend))
					sp.Replay(tr, m)
					m.Report()
				}
				nsPerRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(nsPerRun/float64(t1), "ns/T1-unit")
			})
		}
	}
}

func BenchmarkTheorem10_SPHybrid(b *testing.B) {
	tr := repro.FibWithAccesses(16, 4, 512, true, repro.NewRand(4))
	canon, _ := repro.Canonicalize(tr)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var steals, retries, splits int64
			for i := 0; i < b.N; i++ {
				rep := repro.DetectParallel(canon, p, int64(i), true)
				steals += rep.Stats.Steals
				retries += rep.Stats.QueryRetries
				splits += rep.Stats.Splits
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/run")
			b.ReportMetric(float64(retries)/float64(b.N), "retries/run")
			b.ReportMetric(float64(splits)/float64(b.N), "splits/run")
		})
	}
}

func BenchmarkTheorem10_NaiveLocked(b *testing.B) {
	tr := repro.FibWithAccesses(16, 4, 512, true, repro.NewRand(4))
	canon, _ := repro.Canonicalize(tr)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			reg := metrics.NewRegistry()
			for i := 0; i < b.N; i++ {
				m := sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithMetrics(reg))
				sp.ReplayParallel(canon, m, p)
				m.Report()
			}
			// sp-order is unsynchronized: the monitor takes its one
			// mutex for every event.
			locks := reg.Snapshot().Sum("sp_monitor_events_total")
			b.ReportMetric(locks/float64(b.N), "lock-acquisitions/run")
		})
	}
}

func BenchmarkSection4_LockFreeQueries(b *testing.B) {
	// Queries racing an adversarial inserter that forces rebalances.
	c := om.NewConcurrent()
	first := c.InsertFirst()
	items := []*om.CItem{first}
	for i := 0; i < 1024; i++ {
		items = append(items, c.InsertAfter(items[len(items)-1]))
	}
	stop := make(chan struct{})
	go func() {
		hot := items[len(items)/2]
		for {
			select {
			case <-stop:
				return
			default:
				c.InsertAfter(hot)
			}
		}
	}()
	defer close(stop)
	rng := repro.NewRand(5)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		x := items[rng.Intn(len(items))]
		y := items[rng.Intn(len(items))]
		if c.Precedes(x, y) {
			sink++
		}
	}
	b.ReportMetric(float64(c.QueryRetries.Load())/float64(b.N), "retries/op")
	_ = sink
}

func BenchmarkSection7_Steals(b *testing.B) {
	// Steal counts across structurally extreme shapes: the paper bounds
	// E[steals] = O(P·T∞·lg n).
	shapes := map[string]*spt.Tree{
		"fan":      repro.WideFan(4096, 4),     // tiny T∞
		"balanced": repro.BalancedPTree(12, 4), // T∞ ~ cost
		"fib":      repro.FibTree(16, 2),       // moderate T∞
		"chain":    repro.DeepChain(4096, 4),   // T∞ = T1: no parallelism
	}
	for name, tr := range shapes {
		canon := tr
		if !repro.IsCanonical(tr) {
			canon, _ = repro.Canonicalize(tr)
		}
		b.Run(name+"/P=4", func(b *testing.B) {
			var steals int64
			for i := 0; i < b.N; i++ {
				h := repro.NewSPHybrid(canon, yieldExec)
				st := h.Run(4, int64(i))
				steals += st.Steals
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/run")
			b.ReportMetric(float64(canon.Span()), "Tinf")
		})
	}
}

func BenchmarkOM_InsertAppend(b *testing.B) {
	l := om.NewList()
	x := l.InsertFirst()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = l.InsertAfter(x)
	}
}

func BenchmarkOM_InsertAdversarialSameSpot(b *testing.B) {
	l := om.NewList()
	x := l.InsertFirst()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InsertAfter(x)
	}
	b.ReportMetric(float64(l.Relabels)/float64(b.N), "relabels/op")
}

func BenchmarkOM_Precedes(b *testing.B) {
	l := om.NewList()
	items := []*om.Item{l.InsertFirst()}
	rng := repro.NewRand(6)
	for i := 0; i < 100000; i++ {
		items = append(items, l.InsertAfter(items[rng.Intn(len(items))]))
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		x := items[rng.Intn(len(items))]
		y := items[rng.Intn(len(items))]
		if l.Precedes(x, y) {
			sink++
		}
	}
	_ = sink
}

func BenchmarkSPBagsOps(b *testing.B) {
	// The α(v,v) row of Figure 3 in isolation: full SP-bags run cost per
	// thread on fib.
	tr := repro.FibTree(18, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maintain(tr, "sp-bags")
	}
	nsPerRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(nsPerRun/float64(tr.NumThreads()), "ns/thread")
}

// yieldExec lets thieves run between threads on single-CPU hosts.
func yieldExec(w int, u *spt.Node) { yieldNow() }

// BenchmarkAblation_ImplicitEnglish compares full SP-order (two OM lists)
// against the footnote-2 variant (implicit English order, one OM list) on
// the same construction workload.
func BenchmarkAblation_ImplicitEnglish(b *testing.B) {
	tr := fig3Tree(20000)
	for name, backend := range map[string]string{"TwoLists": "sp-order", "ImplicitEnglish": "sp-order-implicit"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maintain(tr, backend)
			}
		})
	}
}

// BenchmarkAblation_CASLocalTier compares SP-hybrid's analyzed rank-only
// local tier against the Section 7 conjecture (CAS path compression) on a
// find-heavy parallel detection workload.
func BenchmarkAblation_CASLocalTier(b *testing.B) {
	tr := workload.ReadOnlyAccesses(repro.FibTree(15, 1), 8, 128, repro.NewRand(9))
	for _, cas := range []bool{false, true} {
		name := "RankOnly"
		if cas {
			name = "CASCompression"
		}
		b.Run(name, func(b *testing.B) {
			var finds int64
			for i := 0; i < b.N; i++ {
				var h *repro.SPHybrid
				h = repro.NewSPHybridWithOptions(tr, func(w int, u *spt.Node) {
					for _, st := range u.Steps {
						_ = st
						_ = h.FindTrace(u)
					}
					yieldNow()
				}, repro.HybridOptions{CASLocalTier: cas})
				stats := h.Run(4, int64(i))
				finds += stats.LocalFinds
			}
			b.ReportMetric(float64(finds)/float64(b.N), "finds/run")
		})
	}
}
