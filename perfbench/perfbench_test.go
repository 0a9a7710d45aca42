package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/sp"
	"repro/sp/spsync"
	"repro/sp/traced"
)

// testConfig runs a workload for its minimum number of repetitions.
func testConfig(t *testing.T, tracedRun bool) config {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 7, seconds: time.Millisecond, traced: tracedRun, root: root, build: t.TempDir()}
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "instrumented-fanin" {
			continue
		}
		for _, tracedRun := range []bool{false, true} {
			want := endToEnd
			if tracedRun {
				want = perLayer
			}
			t.Run(w.name+map[bool]string{false: "", true: "/traced"}[tracedRun], func(t *testing.T) {
				out, err := w.run(testConfig(t, tracedRun))
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
				}
				for _, k := range want {
					m, ok := out.ms.m[k]
					if !ok {
						t.Errorf("metric %s missing", k)
						continue
					}
					_, isAbsent := out.ms.absent[k]
					if m.Value < 0 || (m.Value == 0 && !isAbsent && !tracedRun) {
						t.Errorf("metric %s = %v", k, m.Value)
					}
				}
			})
		}
	}
}

// runOneLive runs one live repetition with the first n ops of each
// goroutine.
func runOneLive(sh *liveShape, n int) liveRep {
	for g := range sh.ops {
		sh.ops[g] = sh.ops[g][:n]
	}
	return runLiveRep(sh, []sp.Option{sp.WithBackend(liveBackend), sp.WithWorkers(liveGoroutines)}, nil, nil)
}

func TestReadMostlyCheckCatchesSharedWrite(t *testing.T) {
	sh := &liveShape{ops: genReadMostly(3), iterEvents: 1, check: checkReadMostly, body: readMostlyBody}
	if r := runOneLive(sh, 4096); r.err != nil {
		t.Fatalf("race-free program failed its check: %v", r.err)
	}
	sh = &liveShape{ops: genReadMostly(3), iterEvents: 1, check: checkReadMostly, body: readMostlyBody}
	sh.ops[0][0] = writeBit | 5 // a write of a cell the other goroutine reads
	if r := runOneLive(sh, 4096); r.err == nil {
		t.Fatal("a parallel write of a shared cell passed the read-mostly check")
	}
}

func TestForkHeavyCheckNeedsSharedWrites(t *testing.T) {
	sh := &liveShape{ops: genForkHeavy(3, true), iterEvents: 3, check: checkForkHeavy, body: forkHeavyBody}
	if r := runOneLive(sh, 1024); r.err != nil {
		t.Fatalf("fork-heavy program failed its check: %v", r.err)
	}
	sh = &liveShape{ops: genForkHeavy(3, false), iterEvents: 3, check: checkForkHeavy, body: forkHeavyBody}
	if r := runOneLive(sh, 1024); r.err == nil {
		t.Fatal("fork-heavy run without shared writes passed its check")
	}
}

func TestIngestCheckCatchesTruncatedStream(t *testing.T) {
	streams, err := recordStreams(3)
	if err != nil {
		t.Fatal(err)
	}
	is, err := startServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer is.stop()
	for _, st := range streams {
		ack, err := traced.Send(is.addr, st.name, bytes.NewReader(st.data))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAck(ack, st); err != nil {
			t.Errorf("whole stream failed its check: %v", err)
		}
		ack, err = traced.Send(is.addr, st.name, bytes.NewReader(st.data[:len(st.data)/2]))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAck(ack, st); err == nil {
			t.Errorf("stream %s truncated to half passed its check", st.name)
		}
	}
	wrong := streams[0]
	wrong.races++
	ack, err := traced.Send(is.addr, wrong.name, bytes.NewReader(wrong.data))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAck(ack, wrong); err == nil {
		t.Error("a race count other than the recording's passed the check")
	}
}

func TestFaninCheck(t *testing.T) {
	ok := spsync.ReportJSON{Accesses: 10}
	if err := checkFanin("42\n", "42\n", ok); err != nil {
		t.Fatalf("clean report failed: %v", err)
	}
	for name, r := range map[string]spsync.ReportJSON{
		"unjoined":   {Unjoined: 17},
		"orphans":    {Orphans: 1},
		"unjoinable": {Unjoinable: 1},
		"racy":       {Racy: true, Races: []spsync.RaceJSON{{Addr: 1}}},
	} {
		if err := checkFanin("42\n", "42\n", r); err == nil || !strings.Contains(err.Error(), "fanin") {
			t.Errorf("%s report passed the check", name)
		}
	}
	if err := checkFanin("41\n", "42\n", ok); err == nil {
		t.Error("wrong output passed the check")
	}
}

func TestSampler(t *testing.T) {
	x := newSampler(8)
	for i := int64(0); i < 1000; i++ {
		x.add(i)
	}
	if len(x.s) > 8 || len(x.s) < 4 {
		t.Fatalf("kept %d samples, want 4..8", len(x.s))
	}
	for i := 1; i < len(x.s); i++ {
		if d := x.s[i] - x.s[i-1]; d != int64(x.stride) {
			t.Fatalf("samples %v are not evenly spaced at stride %d", x.s, x.stride)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 = %v, want 90", p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
