package metrics_test

import (
	"testing"

	"repro/internal/spt"
	"repro/sp"
	"repro/sp/metrics"
)

// TestSharedRegistryNoPerMonitorGrowth: many sp-order monitors sharing
// one registry, as sptraced's per-stream monitors do, add no series and
// no collect hooks after the first, so a long-running ingest service's
// registry stays bounded however many streams it serves.
func TestSharedRegistryNoPerMonitorGrowth(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := spt.FibTree(8, 1)
	run := func() { sp.Replay(tr, sp.MustMonitor(sp.WithBackend("sp-order"), sp.WithMetrics(reg))) }
	seriesCount := func() int {
		n := 0
		for _, f := range reg.Snapshot().Families {
			n += len(f.Series)
		}
		return n
	}
	run()
	series, hooks := seriesCount(), metrics.CollectHooks(reg)
	for i := 0; i < 50; i++ {
		run()
	}
	if got := seriesCount(); got != series {
		t.Fatalf("series grew from %d to %d over 50 more monitors", series, got)
	}
	if got := metrics.CollectHooks(reg); got != hooks {
		t.Fatalf("collect hooks grew from %d to %d over 50 more monitors", hooks, got)
	}
}
