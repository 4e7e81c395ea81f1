package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/benchscripts"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/pash"
)

// script is one benchmark job: a single pipeline and the input files it
// reads (their sizes are the job's input bytes).
type script struct {
	name, src string
	reads     []string
}

// Input sizes. The stream corpus is ~12 MB, the size the one-liners are
// usually shown at. The aggregating scripts run over a smaller corpus
// because at 12 MB one pass of the four takes ~15 s on two cores and
// wf alone peaks near 470 MB resident; at this size a run holds about
// ten passes, and the median over passes is steady.
const (
	streamLines = 400_000 // ~12 MB
	aggLines    = 35_000  // ~1 MB
	aggNumbers  = 200_000 // ~1.4 MB
	warmLines   = 2_000
)

// streamScripts are stateless Fig. 7 / Unix50-style pipelines: no sort
// or uniq, so the time goes to split/merge and the fused kernels.
var streamScripts = []script{
	{"grep", `cat in.txt | tr A-Z a-z | grep -E '(the|of|and).*(water|people|number).*(word|time|day|waltz)'`, []string{"in.txt"}},
	{"cut-sed-rev", `cat in.txt | cut -d ' ' -f 2-4 | sed s/the/THE/g | grep THE | rev`, []string{"in.txt"}},
	{"words-upper", `cat in.txt | tr -cs A-Za-z '\n' | grep -v '^$' | tr a-z A-Z`, []string{"in.txt"}},
}

// aggScripts aggregate: sort, uniq and comm plus the agg merge trees.
// The corpus has ~108 distinct words, so the numeric sort over
// high-cardinality keys keeps a change that only helps duplicate-heavy
// keys from looking like a general win.
var aggScripts = []script{
	{"sort", `cat in.txt | tr A-Z a-z | sort`, []string{"in.txt"}},
	{"wf", `cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | grep -v '^$' | sort | uniq -c | sort -rn`, []string{"in.txt"}},
	{"spell", `cat in.txt | iconv -f utf-8 -t ascii | tr -cs A-Za-z '\n' | tr A-Z a-z | tr -d '0-9' | sort | uniq | comm -23 - dict.txt`, []string{"in.txt", "dict.txt"}},
	{"sort-n", `cat nums.txt | sort -n`, []string{"nums.txt"}},
}

// inputGen writes a workload's input files into dir; small writes the
// little copy the warm-up runs on.
type inputGen func(dir string, seed int64, small bool) error

func streamInputs(dir string, seed int64, small bool) error {
	n := streamLines
	if small {
		n = warmLines
	}
	return workload.TextFile(filepath.Join(dir, "in.txt"), n, seed)
}

func aggInputs(dir string, seed int64, small bool) error {
	n, k := aggLines, aggNumbers
	if small {
		n, k = warmLines, warmLines
	}
	if err := workload.TextFile(filepath.Join(dir, "in.txt"), n, seed); err != nil {
		return err
	}
	if err := workload.Dictionary(filepath.Join(dir, "dict.txt")); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "nums.txt"), []byte(workload.Numbers(k, seed)), 0o644)
}

// batch runs its scripts one after another, in complete passes, through
// the pash library (a Session, as the pash command uses).
type batch struct {
	scripts []script
	gen     inputGen
	dir     string
	warm    string
	sess    *pash.Session
	jobSet
	x *execTotals // traced run only
}

func newBatch(s []script, gen inputGen) *batch { return &batch{scripts: s, gen: gen} }

func (b *batch) setup(ctx context.Context, dir string, seed int64) error {
	b.dir = filepath.Join(dir, "data")
	b.warm = filepath.Join(dir, "warm")
	for _, d := range []string{b.dir, b.warm} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if err := b.gen(b.dir, seed, false); err != nil {
		return err
	}
	if err := b.gen(b.warm, seed, true); err != nil {
		return err
	}
	sizes, err := describeInputs(b.dir)
	if err != nil {
		return err
	}
	for _, s := range b.scripts {
		ref, err := shellDigest(ctx, b.dir, s.src, nil)
		if err != nil {
			return err
		}
		var n int64
		for _, f := range s.reads {
			n += sizes[f]
		}
		b.add(s.name, ref, n)
	}
	// Warm the plan cache and block pools on the small copy: same
	// scripts, so the same plans, without paying a full pass.
	b.sess = pash.NewSession(pash.DefaultOptions(width))
	b.sess.Dir = b.warm
	for _, s := range b.scripts {
		var stderr bytes.Buffer
		if code, err := b.sess.Run(ctx, s.src, strings.NewReader(""), newDigestWriter(), &stderr); err != nil || code != 0 {
			return fmt.Errorf("warm-up %s: exit %d: %v %s", s.name, code, err, stderr.String())
		}
	}
	b.sess.Dir = b.dir
	return nil
}

// describeInputs reports each input file's size and digest, and returns
// the sizes.
func describeInputs(dir string) (map[string]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sizes := map[string]int64{}
	var parts []string
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sizes[e.Name()] = int64(len(data))
		parts = append(parts, fmt.Sprintf("%s %d bytes sha256:%x", e.Name(), len(data), sha256.Sum256(data)))
	}
	report("inputs", "%s", strings.Join(parts, "; "))
	return sizes, nil
}

// jobSet is a fixed list of jobs with their references, run in
// complete passes.
type jobSet struct {
	names   []string
	refs    []digest
	inBytes []int64
}

func (j *jobSet) add(name string, ref digest, inBytes int64) {
	j.names = append(j.names, name)
	j.refs = append(j.refs, ref)
	j.inBytes = append(j.inBytes, inBytes)
}

// passes runs complete passes over the jobs until d has elapsed, so
// every job contributes the same number of samples. Each pass is one
// window; the heap left by the previous pass is returned to the system
// before it starts, so each pass's peak memory is its own.
func (j *jobSet) passes(d time.Duration, job func(i int) (digest, int, error)) []window {
	var out []window
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		resetPeakRSS()
		var w window
		for i, name := range j.names {
			start := time.Now()
			got, code, err := job(i)
			end := time.Now()
			ok := judge(got, j.refs[i], code, err)
			if !ok {
				report("FAILED", "%s: exit %d, err %v, digest match %v", name, code, err, got == j.refs[i])
			}
			w.samples = append(w.samples, sample{start: start, end: end, inBytes: j.inBytes[i], ok: ok})
		}
		w.peakMB = peakRSSMB()
		out = append(out, w)
	}
	parts := make([]string, len(j.names))
	for i, name := range j.names {
		var lat []float64
		for _, w := range out {
			lat = append(lat, ms(w.samples[i].latency()))
		}
		parts[i] = fmt.Sprintf("%s=%.1f", name, median(lat))
	}
	report("job medians (ms)", "%s (n=%d passes)", strings.Join(parts, " "), len(out))
	return out
}

func (b *batch) run(ctx context.Context, d time.Duration) ([]window, error) {
	return b.passes(d, func(i int) (digest, int, error) {
		w := newDigestWriter()
		code, err := b.sess.Run(ctx, b.scripts[i].src, strings.NewReader(""), w, nil)
		return w.sum(), code, err
	}), nil
}

func (b *batch) traced(ctx context.Context, d time.Duration, tr *tracer) ([]window, error) {
	c := core.NewCompiler(core.DefaultOptions(width))
	for _, s := range b.scripts {
		if err := warmPlans(c, s.src); err != nil {
			return nil, err
		}
	}
	b.x = newExecTotals()
	return b.passes(d, func(i int) (digest, int, error) {
		w := newDigestWriter()
		code, err := tracedJob(ctx, tr, c, nil, b.x, b.dir, b.scripts[i].src, strings.NewReader(""), w)
		return w.sum(), code, err
	}), nil
}

// layers adds the execution breakdown and the parallel speedups: the
// real one (width-1 wall over width-2 wall, one pass each) and the
// scheduling simulator's projection onto two cores from profiled runs.
func (b *batch) layers(ctx context.Context, m metrics) error {
	b.x.report(m)

	seq := pash.NewSession(pash.DefaultOptions(1))
	seq.Dir = b.dir
	var w1, w2, sim1, sim2 time.Duration
	for i, s := range b.scripts {
		for _, run := range []struct {
			sess *pash.Session
			wall *time.Duration
		}{{seq, &w1}, {b.sess, &w2}} {
			w := newDigestWriter()
			start := time.Now()
			code, err := run.sess.Run(ctx, s.src, strings.NewReader(""), w, nil)
			*run.wall += time.Since(start)
			if !judge(w.sum(), b.refs[i], code, err) {
				return fmt.Errorf("%s: speedup run failed: exit %d, err %v", s.name, code, err)
			}
		}
		p := &benchscripts.Prepared{Bench: benchscripts.Bench{Name: s.name}, Dir: b.dir, Script: s.src}
		for _, run := range []struct {
			w   int
			sim *time.Duration
		}{{1, &sim1}, {width, &sim2}} {
			opts := core.DefaultOptions(run.w)
			opts.MeasureMode = true
			r, err := p.Execute(opts)
			if err != nil {
				return err
			}
			if digest(r.Hash) != b.refs[i] {
				return fmt.Errorf("%s: profiled run at width %d differs from the reference", s.name, run.w)
			}
			*run.sim += r.SimTime(2)
		}
	}
	m.set("runtime.real_speedup", ratio(float64(w1), float64(w2)), "x")
	m.set("sim.speedup_2core", ratio(float64(sim1), float64(sim2)), "x")
	report("speedup", "real %.3fx (width 1 %.3f s over width 2 %.3f s, one pass); simulated on 2 cores %.3fx (%.3f s over %.3f s)",
		ratio(float64(w1), float64(w2)), w1.Seconds(), w2.Seconds(), ratio(float64(sim1), float64(sim2)), sim1.Seconds(), sim2.Seconds())
	return nil
}

func (b *batch) close() {}
