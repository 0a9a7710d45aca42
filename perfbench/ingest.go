package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/workload"
	"repro/sp"
	spmetrics "repro/sp/metrics"
	"repro/sp/trace"
	"repro/sp/traced"
)

// The ingest workload streams recorded traces into an in-process
// sptraced server over loopback TCP. Only the six scenarios without
// Put/Get edges are used: replaying channel-pipeline or future-dag costs
// time cubic in their size and would swamp the serial monitor path this
// workload measures.
var ingestScenarios = []string{"forkjoin", "pipeline", "lockheavy", "readmostly", "planted", "forkheavy"}

const (
	ingestThreads = 1024 // threads per recorded trace
	ingestClients = 2    // connections in the closed loop
	ingestRounds  = 2    // rounds each server lifetime ingests
	minStreams    = 100  // so that ten stream latencies lie beyond p90
)

// stream is one recorded trace and what its ingestion must report.
type stream struct {
	name   string
	data   []byte
	events int64 // events in the trace
	races  int64 // races the recording monitor reported
}

// recordStreams records each ingest scenario once, on seeds derived
// from seed.
func recordStreams(seed int64) ([]stream, error) {
	out := make([]stream, 0, len(ingestScenarios))
	for i, name := range ingestScenarios {
		sc, ok := workload.ScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		var buf bytes.Buffer
		rep, err := workload.RecordTrace(sc.Build(ingestThreads, seed+int64(i)), &buf)
		if err != nil {
			return nil, err
		}
		st, err := trace.Stat(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		out = append(out, stream{name: name, data: buf.Bytes(), events: st.Events, races: int64(len(rep.Races))})
	}
	return out, nil
}

// checkAck: the stream was accepted whole and the server's monitor
// found exactly the races the recording monitor found.
func checkAck(ack traced.StreamSummary, want stream) error {
	if ack.State != "ok" {
		return fmt.Errorf("stream %s: state %q (%s)", want.name, ack.State, ack.Error)
	}
	if ack.Events != want.events {
		return fmt.Errorf("stream %s: %d events applied, trace has %d", want.name, ack.Events, want.events)
	}
	if ack.Races != want.races {
		return fmt.Errorf("stream %s: %d races, recording found %d", want.name, ack.Races, want.races)
	}
	return nil
}

// ingestServer is a running in-process server and its listener.
type ingestServer struct {
	s    *traced.Server
	addr string
	done chan struct{}
}

// startServer starts a server with the default configuration, recording
// into reg.
func startServer(reg *spmetrics.Registry) (*ingestServer, error) {
	s, err := traced.New(traced.Config{Metrics: reg})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Shutdown(context.Background())
		return nil, err
	}
	is := &ingestServer{s: s, addr: l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(is.done)
		s.Serve(l)
	}()
	return is, nil
}

// stop drains the server and waits for its accept loop to return. The
// loop's own error is not reported: a server stopped before its loop
// ran returns "draining", and an accept failure while streaming already
// failed the clients.
func (is *ingestServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := is.s.Shutdown(ctx)
	<-is.done
	return err
}

// ingestPhase is the outcome of a closed-loop streaming phase.
type ingestPhase struct {
	reps              []rep
	rssMB             []float64       // peak resident set of each repetition
	latency           []time.Duration // client-observed, connect to ack
	server            []time.Duration // ack FinishedAt − StartedAt
	attempted, failed int64
	workers           int
	steal             float64
}

// runIngestPhase repeats, until d has elapsed and at least min streams
// were sent, one server lifetime: a fresh server ingests
// ingestRounds rounds, and in a round each client sends every trace
// once, starting at a different one, waiting for each ack before
// sending the next. The server keeps state per ingested stream (its
// race table remembers which streams saw each race), so a fixed number
// of streams per server keeps its memory independent of how fast the
// run goes. Only the streaming is timed.
func runIngestPhase(streams []stream, d time.Duration, min int, reg *spmetrics.Registry) (*ingestPhase, error) {
	ph := &ingestPhase{}
	perServer := ingestRounds * ingestClients * len(streams)
	steal0 := stealSeconds()
	var mu sync.Mutex
	reps, err := repeat(d, (min+perServer-1)/perServer, func() (rep, error) {
		is, err := startServer(reg)
		if err != nil {
			return rep{}, err
		}
		ph.workers = is.s.Config().Workers
		debug.FreeOSMemory()
		resetPeakRSS()
		r := measure(func() int64 {
			var wg sync.WaitGroup
			var events int64
			for c := 0; c < ingestClients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < ingestRounds*len(streams); k++ {
						want := streams[(k+c*len(streams)/ingestClients)%len(streams)]
						t0 := time.Now()
						ack, err := traced.Send(is.addr, fmt.Sprintf("c%d-%s", c, want.name), bytes.NewReader(want.data))
						lat := time.Since(t0)
						if err == nil {
							err = checkAck(ack, want)
						}
						mu.Lock()
						ph.attempted++
						if err != nil {
							ph.failed++
							fmt.Printf("check failed: %v\n", err)
						} else {
							events += ack.Events
							ph.latency = append(ph.latency, lat)
							ph.server = append(ph.server, ack.FinishedAt.Sub(ack.StartedAt))
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			return events
		})
		ph.rssMB = append(ph.rssMB, peakRSSMB())
		return r, is.stop()
	})
	ph.reps = reps
	ph.steal = stealSeconds() - steal0
	return ph, err
}

func runIngest(cfg config) (*outcome, error) {
	var streams []stream
	setup, err := medianSetup(5, func() error {
		var err error
		if streams, err = recordStreams(cfg.seed); err != nil {
			return err
		}
		is, err := startServer(nil)
		if err != nil {
			return err
		}
		return is.stop()
	})
	if err != nil {
		return nil, err
	}
	ms := newMetrics()
	if !cfg.traced {
		ph, err := runIngestPhase(streams, cfg.seconds, 1, nil)
		if err != nil {
			return nil, err
		}
		perCPU, _ := throughput(ph.reps)
		ms.set("setup_s", "s", setup*refScale(kernelNominal))
		ms.set("events_per_ref_cpu_s", "1/s", perCPU/refScale(kernelNominal))
		ms.set("peak_rss_mb", "MiB", median(ph.rssMB))
		return &outcome{attempted: ph.attempted, failed: ph.failed, ms: ms, host: hostNow(ph.steal)}, nil
	}

	base, err := runIngestPhase(streams, cfg.seconds/2, minStreams, nil)
	if err != nil {
		return nil, err
	}
	setWallClock(ms, base.reps, durationsMS(base.latency))
	// Every server of the traced phase records into one registry, whose
	// workers-busy gauge is sampled while the phase streams.
	reg := spmetrics.NewRegistry()
	busy := reg.Gauge("sptraced_workers_busy", "")
	stopSampling := make(chan struct{})
	sampled := make(chan float64)
	go func() {
		var sum float64
		var n int
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sum += busy.Value()
				n++
			case <-stopSampling:
				sampled <- sum / float64(max(n, 1))
				return
			}
		}
	}()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph, err := runIngestPhase(streams, cfg.seconds-cfg.seconds/2, minStreams, reg)
	runtime.ReadMemStats(&ms1)
	close(stopSampling)
	meanBusy := <-sampled
	if err != nil {
		return nil, err
	}
	var events int64
	for _, r := range ph.reps {
		events += r.events
	}
	basePerCPU, _ := throughput(base.reps)
	perCPU, _ := throughput(ph.reps)
	queue := make([]float64, len(ph.latency))
	for i := range ph.latency {
		queue[i] = float64((ph.latency[i] - ph.server[i]).Nanoseconds()) / 1e6
	}
	server := durationsMS(ph.server)
	ms.set("traced.server_ms_p50", "ms", percentile(server, 50))
	ms.set("traced.server_ms_p90", "ms", percentile(server, 90))
	ms.set("traced.queue_ms_p50", "ms", percentile(queue, 50))
	ms.set("traced.workers_busy_frac", "ratio", meanBusy/float64(ph.workers))
	imb, _ := reg.Snapshot().Value("sp_shadow_shard_imbalance")
	ms.set("shadow.shard_imbalance", "ratio", imb)
	const noOM = "the server's sp-order backend keeps no batched OM tier"
	ms.none("om.drains_per_event", "ratio", noOM)
	ms.none("om.relabels_per_event", "ratio", noOM)
	ms.none("om.pending_highwater", "count", noOM)
	ms.set("gc.alloc_bytes_per_event", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(events))
	ms.set("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	if _, err := replayLayers(ms, streams, "sp-order", false, nil); err != nil {
		return nil, err
	}
	noSpsync(ms, "only instrumented-fanin runs an instrumented program")
	ms.set("events_per_cpu_s", "1/s", basePerCPU)
	ms.set("host.ref_rate", "1/s", median(refRates))
	ms.set("host.steal_s", "s", ph.steal)
	ms.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	ms.set("tracing.overhead_ratio", "ratio", perCPU/basePerCPU)
	return &outcome{attempted: base.attempted + ph.attempted, failed: base.failed + ph.failed, ms: ms, host: hostNow(ph.steal)}, nil
}

// replayLayers splits the trace layers the way the ingest path uses
// them: it times Reader.Next over each stream, then Applier.Apply per
// event on a fresh monitor of the given backend, and reports decode
// and apply cost per event, the apply time of each monitor call by
// opcode, and the replay monitors' reports. The replay monitors record
// into reg when it is non-nil. It returns the CPU time the applies took.
func replayLayers(ms *metrics, streams []stream, backend string, lockAware bool, reg *spmetrics.Registry) (time.Duration, error) {
	var applyCPU time.Duration
	var decodeNS, applyNS, events, bytesN int64
	var queries, accesses int64
	var reportNS, threads []float64
	byOp := map[trace.Op]*sampler{}
	for _, op := range []trace.Op{trace.Fork, trace.Join, trace.Read, trace.Write, trace.Acquire, trace.Put, trace.Get} {
		byOp[op] = newSampler(1 << 16)
	}
	for _, st := range streams {
		rd, err := trace.NewReader(bytes.NewReader(st.data))
		if err != nil {
			return 0, err
		}
		var evs []trace.Event
		t0 := time.Now()
		for {
			ev, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, fmt.Errorf("decoding %s: %w", st.name, err)
			}
			evs = append(evs, ev)
		}
		decodeNS += time.Since(t0).Nanoseconds()
		opts := []sp.Option{sp.WithBackend(backend), sp.WithLockAwareness(lockAware)}
		if reg != nil {
			opts = append(opts, sp.WithMetrics(reg))
		}
		m, err := sp.NewMonitor(opts...)
		if err != nil {
			return 0, err
		}
		a := trace.NewApplier(m)
		c0 := selfCPU()
		for _, ev := range evs {
			s := time.Now()
			if err := a.Apply(ev); err != nil {
				return 0, fmt.Errorf("replaying %s: %w", st.name, err)
			}
			d := time.Since(s).Nanoseconds()
			applyNS += d
			if x := byOp[ev.Op]; x != nil {
				x.add(d)
			}
		}
		applyCPU += selfCPU() - c0
		t1 := time.Now()
		rep := m.Report()
		reportNS = append(reportNS, float64(time.Since(t1).Nanoseconds()))
		queries += rep.Queries
		accesses += rep.Accesses
		threads = append(threads, float64(rep.Threads))
		events += int64(len(evs))
		bytesN += int64(len(st.data))
	}
	ms.set("trace.decode_ns_per_event", "ns", float64(decodeNS)/float64(events))
	ms.set("trace.apply_ns_per_event", "ns", float64(applyNS)/float64(events))
	ms.set("trace.bytes_per_event", "B", float64(bytesN)/float64(events))
	p := func(name string, op trace.Op, q float64) {
		if len(byOp[op].s) == 0 {
			ms.none(name, "ns", fmt.Sprintf("the replayed trace has no %s events", op))
			return
		}
		ms.set(name, "ns", percentile(merged(byOp[op]), q))
	}
	p("monitor.read_ns_p50", trace.Read, 50)
	p("monitor.read_ns_p99", trace.Read, 99)
	p("monitor.write_ns_p50", trace.Write, 50)
	p("monitor.write_ns_p99", trace.Write, 99)
	p("monitor.fork_ns_p50", trace.Fork, 50)
	p("monitor.fork_ns_p99", trace.Fork, 99)
	p("monitor.join_ns_p50", trace.Join, 50)
	p("monitor.join_ns_p99", trace.Join, 99)
	p("monitor.acquire_ns_p50", trace.Acquire, 50)
	p("monitor.put_ns_p50", trace.Put, 50)
	p("monitor.get_ns_p50", trace.Get, 50)
	ms.set("monitor.access_ns_p50", "ns", percentile(merged(byOp[trace.Read], byOp[trace.Write]), 50))
	ms.set("monitor.report_ms", "ms", median(reportNS)/1e6)
	ms.set("monitor.queries_per_access", "ratio", float64(queries)/float64(max(accesses, 1)))
	ms.set("monitor.threads_retained", "count", median(threads))
	return applyCPU, nil
}
