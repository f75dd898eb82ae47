// Command perfbench is the repository benchmark: four closed-loop,
// single-client workloads driven through the public entry points of the
// harness, core, fleet and artifact packages. See README.md for the design,
// the layer map and how to read the output.
//
// Usage (from the repository root):
//
//	perfbench --workload table_rows --seed 0 --seconds 25 --trace 0
//	perfbench --smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 they are the per-layer metrics of a
// separate traced run. A human-readable summary goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds the stores, ledgers and traces, inside the checkout.
const workDir = ".bench_build"

// gcPercent is the GC target of every run. With the pipeline's small live
// heap the default target of 100 collected every few megabytes of
// allocation and took 9-17% of the CPU on the VM-bound workloads.
const gcPercent = 400

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runStats is what one timed closed loop measured.
type runStats struct {
	ops, failed int
	unit        int
	wall        time.Duration
	lat         []time.Duration
	// passWall and passCPU are each whole pass's wall and CPU time.
	passWall, passCPU []time.Duration
	// passRSS is the resident set size at each pass boundary, in MiB.
	passRSS []float64
}

// opsPerSec is throughput over the whole run. Outside load on this kind of
// shared host comes in phases of a few seconds; a mean over whole passes
// averages them, where a median over passes would jump between them.
func (s runStats) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }

// cpuMsPerOp is CPU time per op over the whole run.
func (s runStats) cpuMsPerOp() float64 {
	var cpu time.Duration
	for _, c := range s.passCPU {
		cpu += c
	}
	return ms(cpu) / float64(s.ops)
}

// slotLatency is the median over the op slots of a pass of each slot's mean
// latency across passes: the typical op's latency. Unlike the median of all
// samples it does not sit in a gap between op kinds of different cost,
// where timing noise would move it from one kind to the other.
func (s runStats) slotLatency() time.Duration {
	sums := make([]time.Duration, s.unit)
	for i, d := range s.lat {
		sums[i%s.unit] += d
	}
	passes := time.Duration(len(s.lat) / s.unit)
	for k := range sums {
		sums[k] /= passes
	}
	return median(sums)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 0, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "measured seconds (a run is made of whole passes)")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run a few ops of every workload and prove the checks catch a wrong expected value")
	)
	flag.Parse()
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(gcPercent)
	if err := checkRoot(); err != nil {
		fatal(err)
	}
	if *smoke {
		if err := runSmoke(workDir); err != nil {
			fatal(err)
		}
		return
	}
	w := newWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown --workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	env := &env{seed: *seed, work: workDir}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, env, *seconds)
	} else {
		res, err = runPlain(w, env, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// checkRoot fails fast outside a repository checkout: the benchmark reads
// the committed golden tables relative to the working directory.
func checkRoot() error {
	for _, p := range []string{"go.mod", goldenDir} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timedSetup runs the workload's set-up reps times, each from scratch, and
// returns the median duration. The state of the last rep is kept.
func timedSetup(w workload, e *env) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < w.setupReps(); i++ {
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return 0, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		ds = append(ds, time.Since(t0))
	}
	return median(ds), nil
}

// loop drives the closed loop: one client issues op i+1 only after op i
// returned. It stops at the first pass boundary after budget has elapsed,
// so every run is made of whole passes.
func loop(w workload, e *env, budget time.Duration) runStats {
	runtime.GC()
	s := runStats{unit: w.unit()}
	t0 := time.Now()
	pass0, cpu0 := t0, cpuTime()
	for i := 0; ; i++ {
		if i%s.unit == 0 && i > 0 {
			now, cpu := time.Now(), cpuTime()
			s.passWall = append(s.passWall, now.Sub(pass0))
			s.passCPU = append(s.passCPU, cpu-cpu0)
			s.passRSS = append(s.passRSS, rssMB())
			pass0, cpu0 = now, cpu
			if e.passDone != nil {
				e.passDone(i)
			}
			if now.Sub(t0) >= budget {
				break
			}
		}
		e.tr.beginOp(i)
		ts := time.Now()
		err := w.op(e, i)
		s.lat = append(s.lat, time.Since(ts))
		e.tr.endOp()
		s.ops++
		if err != nil {
			s.failed++
			if s.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed its check: %v\n", w.name(), i, err)
			}
		}
	}
	s.wall = time.Since(t0)
	return s
}

// runPlain is the end-to-end run: tracing off, every end-to-end metric.
func runPlain(w workload, e *env, seconds float64) (result, error) {
	setup, err := timedSetup(w, e)
	if err != nil {
		return result{}, err
	}
	s := loop(w, e, secs(seconds))
	peak := peakRSSMB() // before the end-of-run checks, which hold extra state
	endFailed := w.finish(e)
	q := w.tailPct()
	tail := percentile(s.lat, q)
	beyond := int(float64(len(s.lat)) * (100 - q) / 100)
	m := map[string]metric{
		"ops_per_s":     {s.opsPerSec(), "1/s"},
		"p50_ms":        {ms(s.slotLatency()), "ms"},
		"tail_ms":       {ms(tail), "ms"},
		"cpu_ms_per_op": {s.cpuMsPerOp(), "ms"},
		"rss_mb":        {medianFloat(s.passRSS), "MB"},
		"setup_s":       {setup.Seconds(), "s"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d cpus=%d gomaxprocs=%d gogc=%d clients=1 loop=closed passes=%d ops=%d failed=%d end_checks_failed=%d\n",
		w.name(), e.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), gcPercent, len(s.passWall), s.ops, s.failed, endFailed)
	fmt.Fprintf(os.Stderr, "perfbench: tail_ms is p%g over %d samples (%d beyond it); rss_mb is the median at pass boundaries, peak %.1f MB\n",
		q, len(s.lat), beyond, peak)
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: fewer than 10 samples beyond p%g; raise --seconds\n", q)
	}
	printMetrics(m)
	failed := s.failed + endFailed
	return result{Correct: failed == 0, Attempted: s.ops + w.endChecks(), Failed: failed, Metrics: m}, nil
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of durations (the lower middle for an even count).
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// percentile is the nearest-rank percentile q (0-100] of the samples.
func percentile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(float64(len(s))*q/100+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's current resident set size in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscan(string(data), &size, &resident)
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
