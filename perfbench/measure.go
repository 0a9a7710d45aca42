package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rep is one repetition of a workload's timed phase: the monitored
// events it applied and the wall-clock and CPU time it took. CPU time is
// the process's user+sys time (getrusage), or the child's (wait4) for
// the instrumented-program workload. Hypervisor steal does not count as
// CPU time, which is why CPU-based throughput is the primary measure.
type rep struct {
	events int64
	wall   time.Duration
	cpu    time.Duration
}

// selfCPU returns the process's accumulated user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// childrenCPU returns the user+sys CPU time of every child process the
// benchmark has waited for, and of their waited-for descendants.
func childrenCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs body once and times it in wall-clock and process CPU.
func measure(body func() int64) rep {
	w0, c0 := time.Now(), selfCPU()
	ev := body()
	return rep{events: ev, wall: time.Since(w0), cpu: selfCPU() - c0}
}

// The host's speed drifts: with no steal at all, the same program's CPU
// time per event moved by up to a third between runs tens of minutes
// apart. The benchmark therefore also times a fixed reference kernel,
// which uses only the standard library, before every repetition, and
// reports its CPU-time metrics scaled to the speed at which that kernel
// runs kernelNominal times per CPU-second.
const kernelNominal = 600

// refRates holds the reference speed measured before each repetition
// of this process's timed phase: the reference kernel's, or for the
// instrumented program the plain build's (see sampleFaninRef).
var refRates []float64

// refSink keeps the reference kernel's work observable.
var refSink uint64

// refKernel is the fixed reference work: map updates over 16k keys,
// small allocations and integer mixing.
func refKernel() {
	m := make(map[uint64]uint64, 256)
	x := uint64(1)
	var buf []byte
	for i := 0; i < 1<<14; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>50] += x
		if i%16 == 0 {
			buf = make([]byte, 64+i%512)
		}
	}
	refSink += x + uint64(len(m)+len(buf))
}

// sampleRef times two runs of the reference kernel and records its
// speed in runs per CPU-second.
func sampleRef() {
	c0 := selfCPU()
	refKernel()
	refKernel()
	refRates = append(refRates, 2/(selfCPU()-c0).Seconds())
}

// refScale is how much faster than nominal the host ran the reference:
// divide a CPU-time throughput by it, or multiply a CPU time by it, to
// express the figure at the nominal speed.
func refScale(nominal float64) float64 { return median(refRates) / nominal }

// repeat calls one until d has elapsed and at least minReps calls were
// made, stopping at the first error.
func repeat(d time.Duration, minReps int, one func() (rep, error)) ([]rep, error) {
	end := time.Now().Add(d)
	var reps []rep
	for len(reps) < minReps || time.Now().Before(end) {
		sampleRef()
		r, err := one()
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// throughput returns the medians over reps of events per CPU-second and
// events per wall-clock second.
func throughput(reps []rep) (perCPU, perWall float64) {
	c := make([]float64, len(reps))
	w := make([]float64, len(reps))
	for i, r := range reps {
		c[i] = float64(r.events) / r.cpu.Seconds()
		w[i] = float64(r.events) / r.wall.Seconds()
	}
	return median(c), median(w)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for no values. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(float64(len(xs))*p/100+0.999999) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns []float64) []float64 {
	for i := range ns {
		ns[i] /= 1e6
	}
	return ns
}

// medianSetup runs setup n times and returns the median CPU seconds
// one set-up took, its child processes included. Set-up is measured in
// CPU time for the same reason as throughput: hypervisor steal moves
// wall-clock set-up time by more than the bound.
func medianSetup(n int, setup func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c0 := selfCPU() + childrenCPU()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, (selfCPU() + childrenCPU() - c0).Seconds())
	}
	return median(ts), nil
}

// setWallClock records the wall-clock metrics from the untraced half of
// the traced run: events per wall-clock second over reps, and the
// percentiles of the stream times.
func setWallClock(ms *metrics, reps []rep, streamMS []float64) {
	_, perWall := throughput(reps)
	ms.set("events_per_s", "1/s", perWall)
	ms.set("stream_ms_p50", "ms", percentile(streamMS, 50))
	ms.set("stream_ms_p90", "ms", percentile(streamMS, 90))
}

// stealSeconds reads the host's cumulative hypervisor steal time, summed
// over CPUs, from /proc/stat (0 where it is unavailable).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// that peakRSSMB covers only what follows. Where the kernel does not
// allow it, the mark covers the whole process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns this process's peak anonymous resident set in MiB
// (see peakAnonKB).
func peakRSSMB() float64 {
	return float64(peakAnonKB(os.Getpid())) / 1024
}

// peakAnonKB returns a process's resident-set high-water mark less its
// file-backed and shared pages, in KiB, from /proc/<pid>/status; 0 when
// it cannot be read (the process has exited). File-backed pages are
// mostly the program's own binary, which the page cache shared with
// other processes grows and shrinks by megabytes independently of the
// program, so they are left out.
func peakAnonKB(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	kb := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && (k == "VmHWM" || k == "RssFile" || k == "RssShmem") {
			kb[k], _ = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]
}

// host describes the machine a run measured, printed with every result
// so that a noisy run can be traced to its cause.
type host struct {
	RefRate    float64 `json:"ref_rate"`
	StealS     float64 `json:"steal_s"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go"`
}

func hostNow(steal float64) host {
	return host{RefRate: median(refRates), StealS: steal, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// sampler keeps a uniform, deterministic subsample of a long series of
// durations in bounded memory: the values whose index is a multiple of
// the stride, which doubles whenever the sample is full.
type sampler struct {
	s         []int64
	n, stride int64
}

func newSampler(capacity int) *sampler {
	return &sampler{s: make([]int64, 0, capacity), stride: 1}
}

func (x *sampler) add(ns int64) {
	i := x.n
	x.n++
	if i%x.stride != 0 {
		return
	}
	if len(x.s) == cap(x.s) {
		k := 0
		for j := 0; j < len(x.s); j += 2 {
			x.s[k] = x.s[j]
			k++
		}
		x.s = x.s[:k]
		x.stride *= 2
		if i%x.stride != 0 {
			return
		}
	}
	x.s = append(x.s, ns)
}

// merged returns every kept sample of the samplers as float64s.
func merged(xs ...*sampler) []float64 {
	var out []float64
	for _, x := range xs {
		for _, v := range x.s {
			out = append(out, float64(v))
		}
	}
	return out
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's measurements and, for the traced run, the
// reason each per-layer metric a workload cannot measure reads 0.
type metrics struct {
	m      map[string]metric
	absent map[string]string
}

func newMetrics() *metrics {
	return &metrics{m: map[string]metric{}, absent: map[string]string{}}
}

func (ms *metrics) set(name, unit string, v float64) { ms.m[name] = metric{Value: v, Unit: unit} }

// none records that name does not apply to this workload, and why.
func (ms *metrics) none(name, unit, why string) {
	ms.m[name] = metric{Value: 0, Unit: unit}
	ms.absent[name] = why
}
