package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/workload"
	"repro/pash"
)

// distLines sizes the distributed workload's corpus (~3 MB).
const distLines = 100_000

// distJob is one of the three ways a region ships to the workers.
type distJob struct {
	script
	// rangePool selects the pool that shares the coordinator's file
	// system, so stateless chains over a file ship as file ranges.
	rangePool bool
}

// distJobs: the same stateless pipeline framed and as file-range
// shards, plus a sort | uniq -c whose barrier-split consumers ship as
// contiguous streams.
var distJobs = []distJob{
	{script{"framed", `cat in.txt | tr A-Z a-z | grep -E '(the|of|and).*(water|people|number)'`, []string{"in.txt"}}, false},
	{script{"range", `cat in.txt | tr A-Z a-z | grep -E '(the|of|and).*(water|people|number)'`, []string{"in.txt"}}, true},
	{script{"streamed", `cat in.txt | tr -cs A-Za-z '\n' | sort | uniq -c`, []string{"in.txt"}}, false},
}

// distWorkload is a coordinator with a pool of two in-process workers on
// unix sockets, at width 2.
type distWorkload struct {
	dir     string
	servers []*http.Server
	served  chan error
	pools   [2]*dist.Pool // framed, range
	sess    [2]*pash.Session
	jobSet

	// traced state
	tr     *tracer
	timed  [2]*timedPool
	x      *execTotals
	before []dist.WorkerStats
}

func (w *distWorkload) setup(ctx context.Context, dir string, seed int64) error {
	w.dir = filepath.Join(dir, "data")
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	if err := workload.TextFile(filepath.Join(w.dir, "in.txt"), distLines, seed); err != nil {
		return err
	}
	sizes, err := describeInputs(w.dir)
	if err != nil {
		return err
	}
	for _, j := range distJobs {
		ref, err := shellDigest(ctx, w.dir, j.src, nil)
		if err != nil {
			return err
		}
		w.add(j.name, ref, sizes["in.txt"])
	}

	var names []string
	w.served = make(chan error, 2)
	for i := 0; i < 2; i++ {
		sock := filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
		ln, err := net.Listen("unix", sock)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: dist.NewWorker(nil, w.dir).Handler()}
		w.servers = append(w.servers, srv)
		go func() { w.served <- srv.Serve(ln) }()
		names = append(names, "unix:"+sock)
	}
	for i := range w.pools {
		w.pools[i] = dist.NewPool(names...)
		w.pools[i].SetSharedFS(i == 1)
		w.sess[i] = pash.NewSession(pash.DefaultOptions(width))
		w.sess[i].Dir = w.dir
		w.sess[i].UseWorkers(w.pools[i])
	}
	// Warm both plan caches, the workers' plan caches and the pooled
	// connections with one pass.
	for i, j := range distJobs {
		got, code, err := w.runJob(ctx, j)
		if !judge(got, w.refs[i], code, err) {
			return fmt.Errorf("warm-up %s: exit %d, err %v", j.name, code, err)
		}
	}
	return nil
}

func (w *distWorkload) close() {
	for _, s := range w.servers {
		s.Close()
	}
	for range w.servers {
		<-w.served
	}
	w.servers = nil
}

func (w *distWorkload) pool(j distJob) int {
	if j.rangePool {
		return 1
	}
	return 0
}

func (w *distWorkload) runJob(ctx context.Context, j distJob) (digest, int, error) {
	out := newDigestWriter()
	code, err := w.sess[w.pool(j)].Run(ctx, j.src, strings.NewReader(""), out, nil)
	return out.sum(), code, err
}

func (w *distWorkload) run(ctx context.Context, d time.Duration) ([]window, error) {
	return w.passes(d, func(i int) (digest, int, error) { return w.runJob(ctx, distJobs[i]) }), nil
}

func (w *distWorkload) traced(ctx context.Context, d time.Duration, tr *tracer) ([]window, error) {
	w.tr = tr
	var cs [2]*core.Compiler
	for i := range cs {
		w.timed[i] = &timedPool{Pool: w.pools[i], tr: tr}
		cs[i] = core.NewCompiler(core.DefaultOptions(width))
		cs[i].Workers = w.timed[i]
	}
	for _, j := range distJobs {
		if err := warmPlans(cs[w.pool(j)], j.src); err != nil {
			return nil, err
		}
	}
	w.before = append(w.pools[0].Stats(), w.pools[1].Stats()...)
	w.x = newExecTotals()
	return w.passes(d, func(i int) (digest, int, error) {
		j := distJobs[i]
		out := newDigestWriter()
		code, err := tracedJob(ctx, tr, cs[w.pool(j)], w.timed[w.pool(j)], w.x, w.dir, j.src, strings.NewReader(""), out)
		return out.sum(), code, err
	}), nil
}

func (w *distWorkload) layers(ctx context.Context, m metrics) error {
	jobs := w.x.regions
	n := float64(jobs)
	w.x.report(m)

	wall := map[string]time.Duration{}
	w.tr.mu.Lock()
	for _, s := range w.tr.spans {
		if s.Name == "dist.exec_remote" {
			wall[s.Attr] += s.End.Sub(s.Start)
		}
	}
	w.tr.mu.Unlock()
	var total time.Duration
	parts := []string{}
	for _, kind := range []string{"framed", "range", "streamed"} {
		d := wall[kind]
		total += d
		m.set("dist.exec_remote_ms."+kind, ratio(ms(d), n), "ms")
		parts = append(parts, fmt.Sprintf("%s %.3f", kind, ratio(ms(d), n)))
	}
	m.set("dist.exec_remote_ms", ratio(ms(total), n), "ms")
	report("dist.exec_remote_ms", "%.3f ms per job (%s; summed over concurrent calls, n=%d jobs)",
		ratio(ms(total), n), strings.Join(parts, ", "), jobs)

	after := append(w.pools[0].Stats(), w.pools[1].Stats()...)
	var d dist.WorkerStats
	for _, s := range after {
		d.Requests += s.Requests
		d.Retries += s.Retries
		d.Redispatched += s.Redispatched + s.RedispatchedRemote
		d.BytesOut += s.BytesOut + s.BytesIn
		d.WireBytesOut += s.WireBytesOut + s.WireBytesIn
		d.PlanCacheHits += s.PlanCacheHits
		d.PlanCacheMisses += s.PlanCacheMisses
	}
	for _, s := range w.before {
		d.Requests -= s.Requests
		d.Retries -= s.Retries
		d.Redispatched -= s.Redispatched + s.RedispatchedRemote
		d.BytesOut -= s.BytesOut + s.BytesIn
		d.WireBytesOut -= s.WireBytesOut + s.WireBytesIn
		d.PlanCacheHits -= s.PlanCacheHits
		d.PlanCacheMisses -= s.PlanCacheMisses
	}
	verdicts := d.PlanCacheHits + d.PlanCacheMisses
	m.set("dist.requests", ratio(float64(d.Requests), n), "1/job")
	m.set("dist.retries", ratio(float64(d.Retries), n), "1/job")
	m.set("dist.redispatched", ratio(float64(d.Redispatched), n), "1/job")
	m.set("dist.raw_mb", ratio(mb(d.BytesOut), n), "MB")
	m.set("dist.wire_mb", ratio(mb(d.WireBytesOut), n), "MB")
	m.set("dist.worker_plan_hit_ratio", ratio(float64(d.PlanCacheHits), float64(verdicts)), "ratio")
	report("dist (per job)", "%.2f requests, %.2f retries, %.2f redispatched, %.3f MB raw, %.3f MB on the wire; worker plan hits %.4f (%d of %d)",
		ratio(float64(d.Requests), n), ratio(float64(d.Retries), n), ratio(float64(d.Redispatched), n),
		ratio(mb(d.BytesOut), n), ratio(mb(d.WireBytesOut), n),
		ratio(float64(d.PlanCacheHits), float64(verdicts)), d.PlanCacheHits, verdicts)
	return nil
}
