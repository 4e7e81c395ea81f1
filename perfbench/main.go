// Command perfbench is the repository's benchmark: it runs one workload
// against the real program at a fixed width of 2, checks every output
// against a reference computed by the system shell, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as
// the last line of standard output. See README.md for the workloads
// and the metric definitions.
//
//	perfbench --workload batch-stream --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"runtime/debug"
	"strings"
	"time"
)

// width is the parallelism every workload runs at. It is fixed, not
// taken from the host, so two machines with different core counts run
// the same graphs.
const width = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// scenario is one benchmark workload.
type scenario interface {
	// setup generates inputs under dir from seed, computes the reference
	// outputs, starts any servers and warms the program up.
	setup(ctx context.Context, dir string, seed int64) error
	// run measures for about d and returns the jobs in windows.
	run(ctx context.Context, d time.Duration) ([]window, error)
	// traced measures for about d with every layer call timed.
	traced(ctx context.Context, d time.Duration, tr *tracer) ([]window, error)
	// layers adds the traced run's workload-specific metrics.
	layers(ctx context.Context, m metrics) error
	// close stops everything setup started.
	close()
}

var workloads = map[string]func() scenario{
	"batch-stream": func() scenario { return newBatch(streamScripts, streamInputs) },
	"batch-agg":    func() scenario { return newBatch(aggScripts, aggInputs) },
	"serve-small":  func() scenario { return &serveSmall{} },
	"dist":         func() scenario { return &distWorkload{} },
}

func main() {
	name := flag.String("workload", "", "workload to run: batch-stream, batch-agg, serve-small or dist")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	workDir := flag.String("dir", ".bench_build/work", "scratch directory for generated inputs")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := runWorkload(mk, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

func runWorkload(mk func() scenario, name string, seed int64, d time.Duration, trace bool, workDir string) (*result, error) {
	ctx := context.Background()
	// Relative, so unix socket paths stay short wherever the checkout is.
	root := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer os.RemoveAll(root)

	// Set up several times and keep the last instance; setup_s is the
	// median, and the discarded instances show that set-up is repeatable.
	var w scenario
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		w = mk()
		start := time.Now()
		if err := w.setup(ctx, dir, seed); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	report("workload", "%s seed=%d seconds=%s trace=%v width=%d", name, seed, d, trace, width)
	provenance()
	report("setup_s", "%.3f s (median of %d set-ups: %s)", median(setups), len(setups), fmtFloats(setups))

	var samples []sample
	var err error
	m := metrics{}
	names := endToEndNames
	if trace {
		samples, err = tracedRun(ctx, w, d, m)
		names = perLayerNames
	} else {
		m.set("setup_s", median(setups), "s")
		samples, err = measuredRun(ctx, w, d, m)
	}
	if err != nil {
		return nil, err
	}
	failed := failures(samples)
	report("fail_ratio", "%.4f (%d failed of %d attempted)", ratio(float64(failed), float64(len(samples))), failed, len(samples))
	out := metrics{}
	for _, n := range names {
		v, ok := m[n.name]
		if !ok {
			// The workload does not reach this layer.
			v = metric{Value: 0, Unit: n.unit}
		}
		out[n.name] = v
	}
	return &result{
		Correct:   failed == 0 && len(samples) > 0,
		Attempted: len(samples),
		Failed:    failed,
		Metrics:   out,
	}, nil
}

// measuredRun is the end-to-end run: tracing off, peak memory counted
// from the end of set-up.
func measuredRun(ctx context.Context, w scenario, d time.Duration, m metrics) ([]sample, error) {
	resetPeakRSS()
	t0, s0 := cpuTimes()
	ws, err := w.run(ctx, d)
	if err != nil {
		return nil, err
	}
	t1, s1 := cpuTimes()
	e := summarize(ws)
	e.print("")
	m.set("mb_per_s", e.mbPerS, "MB/s")
	m.set("jobs_per_s", e.jobsPerS, "1/s")
	m.set("job_p50_ms", e.p50, "ms")
	m.set("job_p99_ms", e.p99, "ms")
	if e.peakMB > 0 {
		report("peak_rss_mb", "%.1f MB (median of %d windows' peaks)", e.peakMB, e.windows)
		m.set("peak_rss_mb", e.peakMB, "MB")
	} else {
		rss := peakRSSMB()
		report("peak_rss_mb", "%.1f MB (peak over the run)", rss)
		m.set("peak_rss_mb", rss, "MB")
	}
	report("cpu_steal", "%.2f %% of host CPU time during the run went to other guests", 100*ratio(float64(s1-s0), float64(t1-t0)))
	return allSamples(ws), nil
}

// tracedRun first repeats the untraced measurement for half the window,
// then measures the same scripts with every layer call timed. The
// difference between the two is the tracing overhead.
func tracedRun(ctx context.Context, w scenario, d time.Duration, m metrics) ([]sample, error) {
	var ms0, ms1 stdruntime.MemStats
	stdruntime.ReadMemStats(&ms0)
	plainWs, err := w.run(ctx, d/2)
	if err != nil {
		return nil, err
	}
	stdruntime.ReadMemStats(&ms1)
	plain := allSamples(plainWs)
	base := summarize(plainWs)
	base.print("untraced ")
	// Every benchmark script is a single pipeline, so regions == jobs.
	regions := float64(len(plain))
	m.set("runtime.alloc_mb_per_region", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, regions), "MB")
	m.set("runtime.gc_per_job", ratio(float64(ms1.NumGC-ms0.NumGC), regions), "count")
	report("runtime.memory", "%.3f MB allocated per region, %.4f GCs per job (%d untraced jobs)",
		m["runtime.alloc_mb_per_region"].Value, m["runtime.gc_per_job"].Value, len(plain))

	tr := newTracer()
	ws, err := w.traced(ctx, d, tr)
	if err != nil {
		return nil, err
	}
	samples := allSamples(ws)
	e := summarize(ws)
	e.print("traced ")
	m.set("traced.mb_per_s", e.mbPerS, "MB/s")
	m.set("traced.jobs_per_s", e.jobsPerS, "1/s")
	m.set("traced.job_p50_ms", e.p50, "ms")
	m.set("traced.job_p99_ms", e.p99, "ms")
	overhead := 100 * (base.jobsPerS/e.jobsPerS - 1)
	report("trace.overhead_pct", "%.2f %% (untraced %.3f jobs/s over traced %.3f jobs/s)", overhead, base.jobsPerS, e.jobsPerS)
	m.set("trace.overhead_pct", overhead, "%")

	tr.layerMetrics(m, len(samples))
	if err := w.layers(ctx, m); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(".bench_build", "spans")); err != nil {
		report("spans", "not written: %v", err)
	}
	return append(plain, samples...), nil
}

// report prints one human-readable result line (the JSON line comes
// last).
func report(key, format string, args ...any) {
	fmt.Printf("%-28s %s\n", key, fmt.Sprintf(format, args...))
}

// provenance records where the numbers came from.
func provenance() {
	commit, modified := "unknown (not built from a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	report("provenance", "nproc=%d GOMAXPROCS=%d go=%s os=%s/%s commit=%s%s source=%s",
		stdruntime.NumCPU(), stdruntime.GOMAXPROCS(0), stdruntime.Version(),
		stdruntime.GOOS, stdruntime.GOARCH, commit, modified, os.Getenv("PERFBENCH_SOURCE_DIGEST"))
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}
