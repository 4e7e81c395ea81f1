package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dfg"
	"repro/internal/runtime"
)

// span is one timed call at a layer boundary. Spans of one job share
// its id; parent is the index of the enclosing span (-1 for the job).
type span struct {
	Job    int64     `json:"job"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Layer  string    `json:"layer"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Attr carries a verdict such as a plan-cache hit or miss.
	Attr string `json:"attr,omitempty"`
}

// layers lists every layer a span can be charged to, in report order.
// The job span itself belongs to none: its time not covered by any
// child is the unattributed time.
var layers = []string{"shell", "core", "runtime", "commands", "agg", "dist", "serve", "http"}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	jobs  int64
}

func newTracer() *tracer { return &tracer{} }

// job opens a new job span and returns its id and span index.
func (t *tracer) job() (int64, int) {
	t.mu.Lock()
	t.jobs++
	id := t.jobs
	t.mu.Unlock()
	return id, t.begin(id, -1, "job", "")
}

// begin opens a span now and returns its index.
func (t *tracer) begin(job int64, parent int, name, layer string) int {
	return t.add(span{Job: job, Parent: parent, Name: name, Layer: layer, Start: time.Now()})
}

// end closes the span at index i now.
func (t *tracer) end(i int, attr string) {
	now := time.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.spans[i].Attr = attr
	t.mu.Unlock()
}

// add records a complete span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// nodeLayer charges a node's active time to the layer that did the
// work: command kernels to commands, aggregators (pash-agg-* and the
// sort -m merge) to agg, and split/merge/relay plumbing to runtime.
func nodeLayer(n *dfg.Node) string {
	switch n.Kind {
	case dfg.KindAgg:
		return "agg"
	case dfg.KindCommand, dfg.KindMap:
		if isSortMerge(n) {
			return "agg"
		}
		return "commands"
	case dfg.KindRemote:
		return "dist"
	}
	return "runtime"
}

func isSortMerge(n *dfg.Node) bool {
	if n.Name != "sort" {
		return false
	}
	for _, a := range n.Args {
		if a.InputIdx < 0 && a.Text == "-m" {
			return true
		}
	}
	return false
}

// addNodes turns one region's measured node times into spans under the
// execute span. NodeTimes carries durations, not timestamps, so every
// node is laid out from the region's start: the node span covers its
// wall time, its active time sits at the start as a child span (per
// stage for a fused node, laid end to end), and the rest of the node
// span is time the node was blocked on a pipe, charged to runtime.
// remote maps a shipped node's spec to its dist.exec_remote spans.
func (t *tracer) addNodes(job int64, exec int, g *dfg.Graph, res *runtime.Result, remote map[*dfg.RemoteSpec][]int) {
	t.mu.Lock()
	start := t.spans[exec].Start
	t.mu.Unlock()
	byID := map[int]*dfg.Node{}
	for _, n := range g.Nodes {
		byID[n.ID] = n
	}
	for _, nt := range res.NodeTimes {
		n := byID[nt.ID]
		if n == nil {
			continue
		}
		node := t.add(span{Job: job, Parent: exec, Name: "node." + n.Kind.String(), Layer: "runtime",
			Start: start, End: start.Add(nt.Wall), Attr: n.Name})
		at := start
		switch {
		case n.Kind == dfg.KindFused && len(nt.Stages) > 0:
			for _, st := range nt.Stages {
				t.add(span{Job: job, Parent: node, Name: "stage", Layer: "commands",
					Start: at, End: at.Add(st.Active), Attr: st.Name})
				at = at.Add(st.Active)
			}
		case n.Kind == dfg.KindRemote:
			t.mu.Lock()
			for _, i := range remote[n.Remote] {
				t.spans[i].Parent = node
			}
			t.mu.Unlock()
		default:
			t.add(span{Job: job, Parent: node, Name: "active", Layer: nodeLayer(n),
				Start: at, End: at.Add(nt.Active), Attr: n.Name})
		}
	}
}

// selfTimes charges every instant of each job to the innermost spans
// open at that instant, split evenly when several run at once (nodes
// of one region run concurrently). For a serial chain this is each
// span's duration minus the part its children cover; with concurrency
// it keeps the per-layer sums adding up to the job's wall time. It
// returns the time per layer, with "" for the job span's own time.
func selfTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	byJob := map[int64][]span{}
	for _, s := range spans {
		byJob[s.Job] = append(byJob[s.Job], s)
	}
	index := map[int]int{}
	for _, js := range byJob {
		for k := range index {
			delete(index, k)
		}
		for i, s := range js {
			index[s.ID] = i
		}
		// Clamp children into their parents so a child can never be
		// open while its parent is closed.
		for i := range js {
			if p, ok := index[js[i].Parent]; ok {
				ps := js[p]
				if js[i].Start.Before(ps.Start) {
					js[i].Start = ps.Start
				}
				if js[i].End.After(ps.End) {
					js[i].End = ps.End
				}
				if js[i].End.Before(js[i].Start) {
					js[i].End = js[i].Start
				}
			}
		}
		var bounds []time.Time
		for _, s := range js {
			bounds = append(bounds, s.Start, s.End)
		}
		sort.Slice(bounds, func(a, b int) bool { return bounds[a].Before(bounds[b]) })
		open := make([]bool, len(js))
		hasOpenChild := make([]bool, len(js))
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			d := hi.Sub(lo)
			if d <= 0 {
				continue
			}
			for i, s := range js {
				open[i] = !s.Start.After(lo) && !s.End.Before(hi)
				hasOpenChild[i] = false
			}
			for i, s := range js {
				if p, ok := index[s.Parent]; ok && open[i] {
					hasOpenChild[p] = true
				}
			}
			var frontier []int
			for i := range js {
				if open[i] && !hasOpenChild[i] {
					frontier = append(frontier, i)
				}
			}
			for _, i := range frontier {
				out[js[i].Layer] += d / time.Duration(len(frontier))
			}
		}
	}
	return out
}

// layerMetrics reports what the spans show: per-layer self time,
// unattributed time, and the layer-call timings each workload shares.
func (t *tracer) layerMetrics(m metrics, jobs int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	n := float64(jobs)

	self := selfTimes(spans)
	var wall time.Duration
	for _, s := range spans {
		if s.Name == "job" {
			wall += s.End.Sub(s.Start)
		}
	}
	parts := []string{}
	for _, l := range layers {
		v := ratio(ms(self[l]), n)
		m.set(l+".self_ms", v, "ms")
		parts = append(parts, fmt.Sprintf("%s=%.3f", l, v))
	}
	un := ratio(ms(self[""]), n)
	m.set("unattributed_ms", un, "ms")
	report("self_ms per job", "%s (n=%d jobs)", strings.Join(parts, " "), jobs)
	report("unattributed_ms", "%.3f ms per job (job wall %.3f ms per job)", un, ratio(ms(wall), n))

	var parse, plan []float64
	hits := 0
	for _, s := range spans {
		switch s.Name {
		case "shell.parse":
			parse = append(parse, us(s.End.Sub(s.Start)))
		case "core.plan":
			plan = append(plan, us(s.End.Sub(s.Start)))
			if s.Attr == "hit" {
				hits++
			}
		}
	}
	if len(parse) > 0 {
		m.set("shell.parse_us", median(parse), "us")
		report("shell.parse_us", "%.2f us (median, n=%d)", median(parse), len(parse))
	}
	if len(plan) > 0 {
		m.set("core.plan_us", median(plan), "us")
		m.set("core.regions", float64(len(plan)), "count")
		m.set("core.plan_hit_ratio", ratio(float64(hits), float64(len(plan))), "ratio")
		report("core.plan_us", "%.2f us (median, n=%d); plan_hit_ratio %.4f (%d hits of %d regions)",
			median(plan), len(plan), ratio(float64(hits), float64(len(plan))), hits, len(plan))
	}
}

// write stores the spans as JSON lines, one file per run.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%d.jsonl", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	report("spans", "%d spans written to %s", len(t.spans), path)
	return nil
}
