package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one job as its caller saw it.
type sample struct {
	start, end time.Time
	// inBytes is the input the job read: its input files, or the request
	// body for serve-small.
	inBytes int64
	// ok is false when the job errored, exited non-zero, got a non-200
	// status, or produced output whose digest differs from the reference.
	ok bool
}

func (s sample) latency() time.Duration { return s.end.Sub(s.start) }

// window is a stretch of consecutive jobs: one pass over the scripts
// (batch, dist) or serveWindow requests (serve-small). Metrics are
// computed per window and reported as the median over windows, so one
// disturbed stretch of a run does not move them.
type window struct {
	samples []sample
	// peakMB is the peak resident memory during the window, or 0 when
	// the workload measures it over the whole run instead.
	peakMB float64
}

func allSamples(ws []window) []sample {
	var out []sample
	for _, w := range ws {
		out = append(out, w.samples...)
	}
	return out
}

// endToEnd is what a user of the system sees over one run.
type endToEnd struct {
	windows  int
	jobs     int // succeeded
	inBytes  int64
	wall     time.Duration
	mbPerS   float64
	jobsPerS float64
	p50, p99 float64
	// pooledP99 is the p99 over every job of the run, for comparison.
	pooledP99 float64
	peakMB    float64
	// jpsRange is the lowest and highest window's jobs_per_s.
	jpsRange [2]float64
}

// summarize computes each metric per window and takes the median over
// windows. A window's wall time runs from its first job's start to its
// last job's end. Throughput counts only jobs that succeeded; a failed
// job adds to its window's time but not to the work done.
func summarize(ws []window) endToEnd {
	var e endToEnd
	var mbs, jps, p50s, p99s, peaks, all []float64
	for _, w := range ws {
		if len(w.samples) == 0 {
			continue
		}
		first, last := w.samples[0].start, w.samples[0].end
		lat := make([]float64, 0, len(w.samples))
		var jobs int
		var in int64
		for _, s := range w.samples {
			if s.start.Before(first) {
				first = s.start
			}
			if s.end.After(last) {
				last = s.end
			}
			lat = append(lat, ms(s.latency()))
			if s.ok {
				jobs++
				in += s.inBytes
			}
		}
		secs := last.Sub(first).Seconds()
		sort.Float64s(lat)
		mbs = append(mbs, mb(in)/secs)
		jps = append(jps, float64(jobs)/secs)
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		if w.peakMB > 0 {
			peaks = append(peaks, w.peakMB)
		}
		all = append(all, lat...)
		e.windows++
		e.jobs += jobs
		e.inBytes += in
		e.wall += last.Sub(first)
	}
	if e.windows == 0 {
		return e
	}
	sort.Float64s(all)
	e.mbPerS, e.jobsPerS = median(mbs), median(jps)
	e.p50, e.p99 = median(p50s), median(p99s)
	e.pooledP99 = quantile(all, 0.99)
	sort.Float64s(jps)
	e.jpsRange = [2]float64{jps[0], jps[len(jps)-1]}
	if len(peaks) > 0 {
		e.peakMB = median(peaks)
	}
	return e
}

func (e endToEnd) print(prefix string) {
	per := ratio(float64(e.jobs), float64(e.windows))
	report(prefix+"mb_per_s", "%.3f MB/s (median of %d windows; %.2f MB in %d jobs over %.3f s)",
		e.mbPerS, e.windows, mb(e.inBytes), e.jobs, e.wall.Seconds())
	report(prefix+"jobs_per_s", "%.3f 1/s (median of %d windows from %.3f to %.3f; %d jobs)",
		e.jobsPerS, e.windows, e.jpsRange[0], e.jpsRange[1], e.jobs)
	report(prefix+"job_p50_ms", "%.3f ms (median of %d windows of ~%.0f jobs)", e.p50, e.windows, per)
	report(prefix+"job_p99_ms", "%.3f ms (median of %d windows of ~%.0f jobs, %d beyond p99 in each; p99 over all %d jobs %.3f ms)",
		e.p99, e.windows, per, int(math.Floor(0.01*per)), e.jobs, e.pooledP99)
}

// quantile interpolates linearly between the closest ranks of sorted
// values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// resetPeakRSS frees what set-up left on the heap and resets the
// kernel's peak-resident counter, so peak_rss_mb covers the measured
// window only.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Without it the
	// peak includes set-up, which only makes the figure larger.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

func mb(n int64) float64 { return float64(n) / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTimes reads the host's CPU time counters from /proc/stat: total and
// stolen (time the hypervisor gave to other guests while this one wanted
// to run), in clock ticks.
func cpuTimes() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseInt(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
