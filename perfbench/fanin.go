package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/instrument"
	spmetrics "repro/sp/metrics"
	"repro/sp/spsync"
)

// faninItems is the fixed input size of the instrumented program: items
// each of its 16 producers sends.
const faninItems = 64

// The instrumented program's speed follows the host's more steeply than
// the in-process reference kernel's, so its reference is the plain
// build run as a child the same way, at refItems items per producer:
// about 25 ms of CPU, which plainNominal runs per CPU-second take.
const (
	refItems     = 16384
	plainNominal = 40
)

// faninBuild is the instrumented program as set-up leaves it.
type faninBuild struct {
	bin      string // instrumented binary
	plain    string // plain binary
	want     string // the plain build's stdout
	rewriteS float64
	buildS   float64
}

// goBuild runs `go build -o out .` in dir.
func goBuild(dir, out string) error {
	cmd := exec.Command("go", "build", "-o", out, ".")
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %v\n%s", dir, err, msg)
	}
	return nil
}

// setupFanin rewrites the program with instrument.Instrument and builds
// it, three times into separate directories, timing each step; it also
// builds and runs the plain program once for the expected output.
func setupFanin(cfg config) (*faninBuild, float64, error) {
	src := filepath.Join(cfg.root, "perfbench", "fanin")
	dir := filepath.Join(cfg.build, "fanin")
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	fb := &faninBuild{}
	var rewrite, build []float64
	i := 0
	setup, err := medianSetup(3, func() error {
		out := filepath.Join(dir, fmt.Sprintf("shadow-%d", i))
		fb.bin = filepath.Join(dir, fmt.Sprintf("fanin-sp-%d", i))
		i++
		c0 := selfCPU()
		if _, err := instrument.Instrument(instrument.Config{Dir: src, Out: out, RepoRoot: cfg.root}); err != nil {
			return err
		}
		c1 := childrenCPU()
		if err := goBuild(out, fb.bin); err != nil {
			return err
		}
		rewrite = append(rewrite, (selfCPU() - c0).Seconds())
		build = append(build, (childrenCPU() - c1).Seconds())
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	fb.rewriteS, fb.buildS = median(rewrite), median(build)
	fb.plain = filepath.Join(dir, "fanin-plain")
	if err := goBuild(src, fb.plain); err != nil {
		return nil, 0, err
	}
	out, err := exec.Command(fb.plain, faninArgs(cfg.seed)...).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("plain fanin: %w", err)
	}
	fb.want = string(out)
	return fb, setup, nil
}

func faninArgs(seed int64) []string {
	return []string{strconv.FormatUint(uint64(seed), 10), strconv.Itoa(faninItems)}
}

// checkFanin: the monitored run printed what the plain build printed,
// found no race, and covered every goroutine and edge of the program.
func checkFanin(stdout, want string, r spsync.ReportJSON) error {
	switch {
	case stdout != want:
		return fmt.Errorf("fanin printed %q, plain build printed %q", stdout, want)
	case r.Racy:
		return fmt.Errorf("fanin reported %d races", len(r.Races))
	case r.Orphans != 0 || r.Unjoined != 0 || r.Unjoinable != 0:
		return fmt.Errorf("fanin coverage gaps: orphans=%d unjoined=%d unjoinable=%d", r.Orphans, r.Unjoined, r.Unjoinable)
	}
	return nil
}

// faninEvents counts the monitored events of one run.
func faninEvents(r spsync.ReportJSON) int64 {
	return r.Forks + r.Joins + r.Puts + r.Gets + r.Accesses
}

// faninRun is one child run.
type faninRun struct {
	rep
	rssMB  float64
	report spsync.ReportJSON
	stdout string
}

// runChild runs the instrumented binary under the default SPSYNC_*
// settings (plus the report path, and the trace path when recording)
// and measures its wall clock, CPU time and peak resident set.
func runChild(fb *faninBuild, cfg config, tracePath string) (faninRun, error) {
	reportPath := filepath.Join(cfg.build, "fanin", "report.json")
	os.Remove(reportPath)
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "SPSYNC_") && !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	env = append(env, "SPSYNC_REPORT="+reportPath, fmt.Sprintf("GOMAXPROCS=%d", procs))
	if tracePath != "" {
		env = append(env, "SPSYNC_TRACE="+tracePath)
	}
	cmd := exec.Command(fb.bin, faninArgs(cfg.seed)...)
	cmd.Env = env
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return faninRun{}, err
	}
	// The child's peak resident set is polled from /proc: wait4's
	// maxrss would also count the resident set of this process, whose
	// memory the child starts on.
	stop := make(chan struct{})
	peak := make(chan int64)
	go func() {
		var kb int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			kb = max(kb, peakAnonKB(cmd.Process.Pid))
			select {
			case <-tick.C:
			case <-stop:
				peak <- kb
				return
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(t0)
	close(stop)
	peakKB := <-peak
	if err != nil {
		return faninRun{}, fmt.Errorf("instrumented fanin: %w", err)
	}
	var r spsync.ReportJSON
	data, err := os.ReadFile(reportPath)
	if err == nil {
		err = json.Unmarshal(data, &r)
	}
	if err != nil {
		return faninRun{}, fmt.Errorf("fanin report: %w", err)
	}
	return faninRun{
		rep:    rep{events: faninEvents(r), wall: wall, cpu: rusageCPU(cmd.ProcessState.SysUsage().(*syscall.Rusage))},
		rssMB:  float64(peakKB) / 1024,
		report: r,
		stdout: stdout.String(),
	}, nil
}

// sampleFaninRef runs the plain build at refItems items per producer
// and records its speed in runs per CPU-second.
func sampleFaninRef(fb *faninBuild, cfg config) error {
	cmd := exec.Command(fb.plain, strconv.FormatUint(uint64(cfg.seed), 10), strconv.Itoa(refItems))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("plain fanin: %w", err)
	}
	refRates = append(refRates, 1/rusageCPU(cmd.ProcessState.SysUsage().(*syscall.Rusage)).Seconds())
	return nil
}

// faninPhase is the outcome of running the child repeatedly.
type faninPhase struct {
	runs              []faninRun
	attempted, failed int64
	steal             float64
}

// runFaninPhase runs the child until d has elapsed and at least three
// runs were made. A run that crashes counts as failed and is left out
// of the measurements; a run that completes counts in them whether or
// not it passes its check.
func runFaninPhase(fb *faninBuild, cfg config, d time.Duration, tracePath string) (*faninPhase, error) {
	ph := &faninPhase{}
	steal0 := stealSeconds()
	end := time.Now().Add(d)
	for ph.attempted < 3 || time.Now().Before(end) {
		if err := sampleFaninRef(fb, cfg); err != nil {
			return nil, err
		}
		ph.attempted++
		run, err := runChild(fb, cfg, tracePath)
		if err == nil {
			ph.runs = append(ph.runs, run)
			err = checkFanin(run.stdout, fb.want, run.report)
		}
		if err != nil {
			ph.failed++
			fmt.Printf("check failed: %v\n", err)
		}
	}
	ph.steal = stealSeconds() - steal0
	return ph, nil
}

func (ph *faninPhase) reps() []rep {
	out := make([]rep, len(ph.runs))
	for i, r := range ph.runs {
		out[i] = r.rep
	}
	return out
}

func runFanin(cfg config) (*outcome, error) {
	fb, setup, err := setupFanin(cfg)
	if err != nil {
		return nil, err
	}
	ms := newMetrics()
	if !cfg.traced {
		ph, err := runFaninPhase(fb, cfg, cfg.seconds, "")
		if err != nil {
			return nil, err
		}
		perCPU, _ := throughput(ph.reps())
		var rss []float64
		for _, r := range ph.runs {
			rss = append(rss, r.rssMB)
		}
		ms.set("setup_s", "s", setup*refScale(plainNominal))
		ms.set("events_per_ref_cpu_s", "1/s", perCPU/refScale(plainNominal))
		ms.set("peak_rss_mb", "MiB", median(rss))
		return &outcome{attempted: ph.attempted, failed: ph.failed, ms: ms, host: hostNow(ph.steal)}, nil
	}

	base, err := runFaninPhase(fb, cfg, cfg.seconds/2, "")
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.build, "fanin", "fanin.sptr")
	ph, err := runFaninPhase(fb, cfg, cfg.seconds-cfg.seconds/2, tracePath)
	if err != nil {
		return nil, err
	}
	if len(base.runs) == 0 || len(ph.runs) == 0 {
		return nil, fmt.Errorf("every run of the instrumented program crashed")
	}
	var walls []time.Duration
	for _, r := range base.runs {
		walls = append(walls, r.wall)
	}
	setWallClock(ms, base.reps(), durationsMS(walls))
	basePerCPU, _ := throughput(base.reps())
	perCPU, _ := throughput(ph.reps())
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return nil, err
	}
	last := ph.runs[len(ph.runs)-1]
	reg := spmetrics.NewRegistry()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	replayCPU, err := replayLayers(ms, []stream{{name: "fanin", data: data}}, "sp-hybrid", true, reg)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	events := last.events
	setMonitorRegistry(ms, reg.Snapshot(), events)
	ms.set("gc.alloc_bytes_per_event", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(events))
	ms.set("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	var cpus []float64
	for _, r := range base.runs {
		cpus = append(cpus, r.cpu.Seconds())
	}
	ms.set("spsync.runtime_cpu_s", "s", median(cpus)-replayCPU.Seconds())
	ms.set("spsync.puts", "count", float64(last.report.Puts))
	ms.set("spsync.gets", "count", float64(last.report.Gets))
	ms.set("spsync.accesses", "count", float64(last.report.Accesses))
	ms.set("instrument.rewrite_s", "s", fb.rewriteS)
	ms.set("instrument.build_s", "s", fb.buildS)
	noTraced(ms, "only ingest-fleet runs the ingest server")
	ms.set("events_per_cpu_s", "1/s", basePerCPU)
	ms.set("host.ref_rate", "1/s", median(refRates))
	ms.set("host.steal_s", "s", ph.steal)
	ms.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	ms.set("tracing.overhead_ratio", "ratio", perCPU/basePerCPU)
	return &outcome{attempted: base.attempted + ph.attempted, failed: base.failed + ph.failed, ms: ms, host: hostNow(ph.steal)}, nil
}
