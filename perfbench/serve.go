package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/pash"
)

// serveFixed are the short scripts most requests run: each repeats, so
// after warm-up they hit the server's plan cache. Every one exits 0 on
// every generated body (the greps match words every body contains).
var serveFixed = []string{
	`tr A-Z a-z | grep -E '(the|of|and).*(to|in|is)'`,
	`cut -d ' ' -f 1-3 | sort`,
	`tr -cs A-Za-z '\n' | sort | uniq -c | sort -rn`,
	`grep the | wc -l`,
	`sed s/the/THE/g | grep THE | rev`,
	`tr a-z A-Z | cut -c 1-20`,
	`sort | uniq | wc -l`,
	`tr -cs A-Za-z '\n' | grep -v '^$' | sort -u`,
}

// serveOneOff is the template of the one-off scripts: each request
// substitutes a fresh number, so its plan misses the cache. The
// generated text has no digits, so the pattern never matches and every
// one-off prints the body's line count: one reference per body covers
// them all.
const serveOneOff = `tr A-Z a-z | grep -v 'q%dz' | wc -l`

const (
	serveBodies    = 16
	serveBodyLines = 330 // ~10 KB of stdin per request
	serveClients   = 2
	serveTokens    = 2
	serveRepeats   = 9 // per fixed script per block: one-offs are 8 of 80
	serveWarmup    = 400
	serveWindow    = 1000
)

// serveSmall drives pash-serve's handler over a real loopback listener
// with a closed loop of two clients, one connection and one tenant
// each.
type serveSmall struct {
	seed   int64
	bodies [][]byte
	refs   [][]digest // [script][body]; the last row is the one-off
	sess   *pash.Session
	sched  *pash.Scheduler
	mtr    *pash.Meter
	srv    *serve.Server
	hs     *http.Server
	addr   string
	stop   func()
	h      *timedHandler
	oneOff atomic.Int64
	served chan error

	// traced state
	tr      *tracer
	before  serve.Metrics
	after   serve.Metrics
	scripts []string
}

func (s *serveSmall) setup(ctx context.Context, dir string, seed int64) error {
	s.seed = seed
	for i := 0; i < serveBodies; i++ {
		s.bodies = append(s.bodies, []byte(workload.Text(serveBodyLines, seed*1000+int64(i))))
	}
	for _, src := range append(serveFixed, fmt.Sprintf(serveOneOff, 0)) {
		row := make([]digest, len(s.bodies))
		for i, b := range s.bodies {
			d, err := shellDigest(ctx, dir, src, b)
			if err != nil {
				return err
			}
			row[i] = d
		}
		s.refs = append(s.refs, row)
	}

	s.sess = pash.NewSession(pash.DefaultOptions(width))
	s.sess.Dir = dir
	s.sched = pash.NewScheduler(serveTokens)
	s.srv = serve.New(s.sess, s.sched)
	s.mtr = pash.NewMeter(pash.MeterConfig{})
	s.stop = s.mtr.Start()
	s.srv.SetMeter(s.mtr)
	s.h = &timedHandler{h: s.srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.hs = &http.Server{Handler: s.h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()

	// Warm the plan cache, the block pools and both connections.
	samples, err := s.load(ctx, 0, serveWarmup)
	if err != nil {
		return err
	}
	if n := failures(samples); n > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", n, len(samples))
	}
	return nil
}

func (s *serveSmall) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.stop != nil {
		s.stop()
	}
}

// load runs the closed loop: serveClients goroutines, each with its own
// connection and tenant, send requests back to back until d has passed
// (or until n requests in total when n > 0).
func (s *serveSmall) load(ctx context.Context, d time.Duration, n int) ([]sample, error) {
	deadline := time.Now().Add(d)
	var sent atomic.Int64
	results := make([][]sample, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			q := &schedule{rng: rand.New(rand.NewSource(s.seed*100 + int64(c)))}
			tenant := "tenant-" + strconv.Itoa(c)
			for {
				if n > 0 && sent.Add(1) > int64(n) {
					return
				}
				if n == 0 && !time.Now().Before(deadline) {
					return
				}
				smp, err := s.request(ctx, client, q, tenant)
				if err != nil {
					errs[c] = err
					return
				}
				results[c] = append(results[c], smp)
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for c := range results {
		out = append(out, results[c]...)
	}
	return out, errors.Join(errs...)
}

// schedule deals requests from shuffled blocks: each block holds every
// fixed script serveRepeats times and one one-off per fixed script
// (~10%), so every window sees the same mix.
type schedule struct {
	rng   *rand.Rand
	block []int // script rows; len(serveFixed) marks a one-off
}

func (q *schedule) next() int {
	if len(q.block) == 0 {
		for row := 0; row <= len(serveFixed); row++ {
			n := serveRepeats
			if row == len(serveFixed) {
				n = len(serveFixed)
			}
			for i := 0; i < n; i++ {
				q.block = append(q.block, row)
			}
		}
		q.rng.Shuffle(len(q.block), func(i, j int) { q.block[i], q.block[j] = q.block[j], q.block[i] })
	}
	row := q.block[0]
	q.block = q.block[1:]
	return row
}

// pick draws the next request: a script row and a body.
func (s *serveSmall) pick(q *schedule) (src string, row, body int) {
	row = q.next()
	body = q.rng.Intn(len(s.bodies))
	if row == len(serveFixed) {
		return fmt.Sprintf(serveOneOff, s.oneOff.Add(1)), row, body
	}
	return serveFixed[row], row, body
}

// request sends one job and judges the reply. Transport errors count as
// failed jobs; only a broken benchmark returns an error.
func (s *serveSmall) request(ctx context.Context, client *http.Client, q *schedule, tenant string) (sample, error) {
	src, row, body := s.pick(q)
	tr := s.tr
	var job int64
	var root, creq int
	if tr != nil {
		job, root = tr.job()
		tr.mu.Lock()
		s.scripts = append(s.scripts, src)
		tr.mu.Unlock()
	}
	u := "http://" + s.addr + "/run?script=" + url.QueryEscape(src)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(s.bodies[body]))
	if err != nil {
		return sample{}, err
	}
	req.Header.Set("X-Pash-Tenant", tenant)
	if tr != nil {
		creq = tr.begin(job, root, "client.request", "http")
		req.Header.Set(benchJobHeader, fmt.Sprintf("%d/%d", job, creq))
	}
	start := time.Now()
	w := newDigestWriter()
	ok := false
	resp, err := client.Do(req)
	if err == nil {
		_, err = io.Copy(w, resp.Body)
		resp.Body.Close()
		ok = err == nil && resp.StatusCode == http.StatusOK &&
			resp.Trailer.Get("X-Pash-Exit-Code") == "0" && resp.Trailer.Get("X-Pash-Error") == "" &&
			w.sum() == s.refs[row][body]
	}
	end := time.Now()
	if tr != nil {
		tr.end(creq, "")
		tr.end(root, "")
	}
	if !ok {
		status := 0
		if resp != nil {
			status = resp.StatusCode
		}
		report("FAILED", "%q: status %d, err %v", src, status, err)
	}
	return sample{start: start, end: end, inBytes: int64(len(s.bodies[body])), ok: ok}, nil
}

func (s *serveSmall) run(ctx context.Context, d time.Duration) ([]window, error) {
	samples, err := s.load(ctx, d, 0)
	return serveWindows(samples), err
}

// serveWindows groups requests by completion into windows of
// serveWindow, enough for ten samples beyond each window's p99. The
// remainder joins the last window.
func serveWindows(samples []sample) []window {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end.Before(samples[j].end) })
	var out []window
	for len(samples) > 0 {
		n := serveWindow
		if len(samples) < 2*serveWindow {
			n = len(samples)
		}
		out = append(out, window{samples: samples[:n]})
		samples = samples[n:]
	}
	return out
}

func (s *serveSmall) traced(ctx context.Context, d time.Duration, tr *tracer) ([]window, error) {
	s.tr = tr
	s.h.tr.Store(tr)
	s.before = s.srv.Snapshot()
	samples, err := s.load(ctx, d, 0)
	s.after = s.srv.Snapshot()
	s.h.tr.Store(nil)
	return serveWindows(samples), err
}

// layers reports the server's counter deltas over the traced window and
// the handler's share of each request. Parse and plan run inside the
// server, so they are timed by replaying the traced job sequence through
// shell.Parse and Compiler.PlanRegion outside it.
func (s *serveSmall) layers(ctx context.Context, m metrics) error {
	b, a := s.before, s.after
	jobs := float64(len(s.scripts))

	var handler, request time.Duration
	var handlers int
	s.tr.mu.Lock()
	for _, sp := range s.tr.spans {
		switch sp.Name {
		case "serve.handler":
			handler += sp.End.Sub(sp.Start)
			handlers++
		case "client.request":
			request += sp.End.Sub(sp.Start)
		}
	}
	s.tr.mu.Unlock()
	m.set("serve.handler_ms", ratio(ms(handler), float64(handlers)), "ms")
	m.set("serve.client_overhead_ms", ratio(ms(request-handler), jobs), "ms")
	m.set("serve.failures", float64(a.Failures-b.Failures), "count")
	m.set("serve.sheds", float64(a.Sheds-b.Sheds), "count")
	report("serve", "handler %.3f ms per request (n=%d), client overhead %.3f ms per request, %d failures, %d sheds",
		ratio(ms(handler), float64(handlers)), handlers, ratio(ms(request-handler), jobs), a.Failures-b.Failures, a.Sheds-b.Sheds)

	hits := a.PlanCache.Hits - b.PlanCache.Hits
	regions := hits + a.PlanCache.Misses - b.PlanCache.Misses
	seq := a.PlanCache.SeqHints - b.PlanCache.SeqHints
	m.set("core.regions", float64(regions), "count")
	m.set("core.plan_hit_ratio", ratio(float64(hits), float64(regions)), "ratio")
	m.set("core.seq_hint_ratio", ratio(float64(seq), float64(regions)), "ratio")
	report("core (server)", "plan_hit_ratio %.4f (%d hits of %d regions), seq_hint_ratio %.4f (%d), %d cache entries",
		ratio(float64(hits), float64(regions)), hits, regions, ratio(float64(seq), float64(regions)), seq, a.PlanCache.Entries)

	if a.Scheduler != nil && b.Scheduler != nil {
		admitted := a.Scheduler.Admitted - b.Scheduler.Admitted
		waited := a.Scheduler.Waited - b.Scheduler.Waited
		wait := a.Scheduler.WaitTime - b.Scheduler.WaitTime
		trims := a.Scheduler.WidthTrims - b.Scheduler.WidthTrims
		m.set("runtime.admit_wait_ms", ratio(ms(wait), float64(admitted)), "ms")
		m.set("runtime.admit_waited_ratio", ratio(float64(waited), float64(admitted)), "ratio")
		m.set("runtime.width_trims", float64(trims), "count")
		report("scheduler", "admit wait %.4f ms per admitted, waited %.4f (%d of %d admitted), %d width trims of %d asks",
			ratio(ms(wait), float64(admitted)), ratio(float64(waited), float64(admitted)), waited, admitted,
			trims, a.Scheduler.WidthAsks-b.Scheduler.WidthAsks)
	}
	if a.Meter != nil && b.Meter != nil {
		var admitted int64
		for _, t := range a.Meter.Tenants {
			admitted += t.Admitted
		}
		for _, t := range b.Meter.Tenants {
			admitted -= t.Admitted
		}
		m.set("meter.commits", float64(a.Meter.Commits-b.Meter.Commits), "count")
		m.set("meter.admitted", float64(admitted), "count")
		report("meter", "%d commits, %d admitted over %d tenants", a.Meter.Commits-b.Meter.Commits, admitted, len(a.Meter.Tenants))
	}

	// Replay parse and plan on a compiler with the same options and a
	// cache warmed with the fixed scripts.
	c := core.NewCompiler(core.DefaultOptions(width))
	if err := warmPlans(c, serveFixed...); err != nil {
		return err
	}
	var parse, plan []float64
	for _, src := range s.scripts {
		pd, pl, err := planOnce(c, src)
		if err != nil {
			return err
		}
		parse = append(parse, us(pd))
		plan = append(plan, us(pl))
	}
	m.set("shell.parse_us", median(parse), "us")
	m.set("core.plan_us", median(plan), "us")
	report("replay", "shell.parse_us %.2f (median, n=%d), core.plan_us %.2f (median, n=%d)",
		median(parse), len(parse), median(plan), len(plan))
	return nil
}

// benchJobHeader carries the benchmark's job and span ids to the
// handler wrapper; the server ignores it.
const benchJobHeader = "X-Bench-Job"

// timedHandler wraps the server's handler. While a tracer is installed
// it records a serve.handler span under the client's request span.
type timedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	var job int64
	var parent int
	fmt.Sscanf(r.Header.Get(benchJobHeader), "%d/%d", &job, &parent)
	i := tr.begin(job, parent, "serve.handler", "serve")
	t.h.ServeHTTP(w, r)
	tr.end(i, "")
}
