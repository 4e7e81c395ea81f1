package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/shell"
)

// tracedJob runs one single-pipeline script through the program's
// layers, timing each public call: shell.Parse, Compiler.PlanRegion and
// runtime.Execute. It builds the same graph the interpreter would, since
// the interpreter makes the same three calls on the same compiler
// options.
func tracedJob(ctx context.Context, tr *tracer, c *core.Compiler, pool *timedPool, x *execTotals,
	dir, src string, stdin io.Reader, stdout io.Writer) (int, error) {
	job, root := tr.job()
	jobStart := time.Now()
	defer func() {
		tr.end(root, "")
		x.jobWall += time.Since(jobStart)
	}()

	p := tr.begin(job, root, "shell.parse", "shell")
	list, err := shell.Parse(src)
	tr.end(p, "")
	if err != nil {
		return 0, err
	}
	stages, err := pipelineStages(list, dir)
	if err != nil {
		return 0, err
	}

	p = tr.begin(job, root, "core.plan", "core")
	g, hit, err := c.PlanRegion(stages, width)
	tr.end(p, verdict(hit))
	if err != nil {
		return 0, err
	}

	cfg := runtime.Config{Dir: dir, Env: map[string]string{}}
	e := tr.begin(job, root, "runtime.execute", "runtime")
	if pool != nil {
		pool.bind(job, e)
		cfg.Remote = pool
	}
	start := time.Now()
	res, err := runtime.Execute(ctx, g, c.Cmds, runtime.StdIO{Stdin: stdin, Stdout: stdout}, cfg)
	wall := time.Since(start)
	tr.end(e, "")
	if err != nil {
		return 0, err
	}
	var remote map[*dfg.RemoteSpec][]int
	if pool != nil {
		remote = pool.take()
	}
	tr.addNodes(job, e, g, res, remote)
	x.add(g, res, wall)
	return res.ExitCode, nil
}

func verdict(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// planOnce parses src and plans its region on c, timing each call.
func planOnce(c *core.Compiler, src string) (parse, plan time.Duration, err error) {
	start := time.Now()
	list, err := shell.Parse(src)
	parse = time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	stages, err := pipelineStages(list, "")
	if err != nil {
		return 0, 0, err
	}
	start = time.Now()
	_, _, err = c.PlanRegion(stages, width)
	return parse, time.Since(start), err
}

// warmPlans fills c's plan cache with the regions of srcs.
func warmPlans(c *core.Compiler, srcs ...string) error {
	for _, src := range srcs {
		if _, _, err := planOnce(c, src); err != nil {
			return err
		}
	}
	return nil
}

// pipelineStages expands a one-pipeline script into planner stages, as
// the interpreter does before planning a region.
func pipelineStages(list *shell.List, dir string) ([]core.Stage, error) {
	if len(list.Items) != 1 {
		return nil, fmt.Errorf("want one pipeline, got %d commands", len(list.Items))
	}
	var cmds []shell.Command
	switch c := list.Items[0].Cmd.(type) {
	case *shell.Pipeline:
		cmds = c.Cmds
	case *shell.Simple:
		cmds = []shell.Command{c}
	default:
		return nil, fmt.Errorf("want a pipeline, got %T", c)
	}
	x := &shell.Expander{Env: shell.NewEnv(), Glob: true, Dir: dir}
	var stages []core.Stage
	for _, cmd := range cmds {
		s, ok := cmd.(*shell.Simple)
		if !ok || len(s.Assigns) > 0 || len(s.Redirs) > 0 {
			return nil, fmt.Errorf("want plain commands, got %T", cmd)
		}
		var argv []string
		for _, w := range s.Args {
			f, err := x.ExpandWord(w)
			if err != nil {
				return nil, err
			}
			argv = append(argv, f...)
		}
		stages = append(stages, core.Stage{Name: argv[0], Args: argv[1:]})
	}
	return stages, nil
}

// timedPool implements core.WorkerPool around a dist.Pool, timing each
// ExecRemote call as a dist.exec_remote span.
type timedPool struct {
	*dist.Pool
	tr *tracer

	mu     sync.Mutex
	job    int64
	exec   int
	bySpec map[*dfg.RemoteSpec][]int
}

// bind attributes the next region's remote calls to job's execute span.
func (p *timedPool) bind(job int64, exec int) {
	p.mu.Lock()
	p.job, p.exec, p.bySpec = job, exec, map[*dfg.RemoteSpec][]int{}
	p.mu.Unlock()
}

// take returns the spans recorded since bind, by remote node spec.
func (p *timedPool) take() map[*dfg.RemoteSpec][]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bySpec
}

func (p *timedPool) ExecRemote(ctx context.Context, req *runtime.RemoteRequest) error {
	p.mu.Lock()
	job, exec := p.job, p.exec
	p.mu.Unlock()
	kind := "framed"
	switch {
	case req.Spec.Path != "":
		kind = "range"
	case req.Spec.Streamed:
		kind = "streamed"
	}
	i := p.tr.begin(job, exec, "dist.exec_remote", "dist")
	err := p.Pool.ExecRemote(ctx, req)
	p.tr.end(i, kind)
	p.mu.Lock()
	p.bySpec[req.Spec] = append(p.bySpec[req.Spec], i)
	p.mu.Unlock()
	return err
}

// execTotals accumulates what runtime.Execute reports over the traced
// jobs.
type execTotals struct {
	jobWall       time.Duration
	regions       int
	nodes, fused  int
	exec          time.Duration
	active        time.Duration
	blocked       time.Duration
	split, merge  time.Duration
	agg           time.Duration
	bytes, chunks int64
	cmd           map[string]time.Duration
}

func newExecTotals() *execTotals { return &execTotals{cmd: map[string]time.Duration{}} }

func (x *execTotals) add(g *dfg.Graph, res *runtime.Result, wall time.Duration) {
	x.regions++
	x.nodes += len(g.Nodes)
	x.exec += wall
	x.bytes += res.BytesMoved
	x.chunks += res.ChunksMoved
	byID := map[int]*dfg.Node{}
	for _, n := range g.Nodes {
		byID[n.ID] = n
		if n.Kind == dfg.KindFused {
			x.fused += len(n.Stages)
		}
	}
	for _, nt := range res.NodeTimes {
		n := byID[nt.ID]
		if n == nil {
			continue
		}
		x.active += nt.Active
		x.blocked += nt.Wall - nt.Active
		switch {
		case n.Kind == dfg.KindSplit:
			x.split += nt.Active
		case n.Kind == dfg.KindMerge || n.Kind == dfg.KindCat:
			x.merge += nt.Active
		case n.Kind == dfg.KindFused:
			for _, st := range nt.Stages {
				x.cmd[st.Name] += st.Active
			}
		case nodeLayer(n) == "agg":
			x.agg += nt.Active
		case nodeLayer(n) == "commands":
			x.cmd[n.Name] += nt.Active
		}
	}
}

// measuredCommands are the commands whose kernels the benchmark scripts
// spend their time in; each gets a per-layer metric.
var measuredCommands = []string{"tr", "grep", "cut", "sed", "rev", "sort", "uniq", "comm"}

// report adds the per-job means; every benchmark job is one region.
func (x *execTotals) report(m metrics) {
	if x.regions == 0 {
		return
	}
	jobs, jobWall := x.regions, x.jobWall
	n := float64(jobs)
	r := float64(x.regions)
	m.set("dfg.nodes_per_region", float64(x.nodes)/r, "count")
	m.set("dfg.fused_stages", float64(x.fused)/r, "count")
	m.set("core.interp_ms", ratio(ms(jobWall-x.exec), n), "ms")
	m.set("runtime.exec_ms", ratio(ms(x.exec), n), "ms")
	m.set("runtime.active_ms", ratio(ms(x.active), n), "ms")
	m.set("runtime.blocked_ms", ratio(ms(x.blocked), n), "ms")
	m.set("runtime.split_active_ms", ratio(ms(x.split), n), "ms")
	m.set("runtime.merge_active_ms", ratio(ms(x.merge), n), "ms")
	m.set("runtime.bytes_moved_mb", ratio(mb(x.bytes), n), "MB")
	m.set("runtime.bytes_per_chunk", ratio(float64(x.bytes), float64(x.chunks)), "bytes")
	m.set("agg.active_ms", ratio(ms(x.agg), n), "ms")
	m.set("agg.share", ratio(float64(x.agg), float64(x.active)), "ratio")
	report("dfg", "%.2f nodes per region, %.2f fused stages per region (%d regions)",
		float64(x.nodes)/r, float64(x.fused)/r, x.regions)
	report("runtime (per job)", "exec %.3f ms, active %.3f ms, blocked %.3f ms, split %.3f ms, merge %.3f ms, %.3f MB moved, %.0f bytes/chunk (%d chunks)",
		ms(x.exec)/n, ms(x.active)/n, ms(x.blocked)/n, ms(x.split)/n, ms(x.merge)/n, mb(x.bytes)/n,
		ratio(float64(x.bytes), float64(x.chunks)), x.chunks)
	report("core.interp_ms", "%.3f ms per job (job wall minus execute wall, n=%d)", ratio(ms(jobWall-x.exec), n), jobs)
	report("agg", "active %.3f ms per job, share %.4f of %.3f ms active per job",
		ms(x.agg)/n, ratio(float64(x.agg), float64(x.active)), ms(x.active)/n)
	for _, c := range measuredCommands {
		m.set("commands."+c+".active_ms", ratio(ms(x.cmd[c]), n), "ms")
	}
	names := make([]string, 0, len(x.cmd))
	for c := range x.cmd {
		names = append(names, c)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, c := range names {
		parts = append(parts, fmt.Sprintf("%s=%.3f", c, ms(x.cmd[c])/n))
	}
	if len(parts) == 0 {
		parts = append(parts, "none in this process (the commands ran on the workers)")
	}
	report("commands active_ms/job", "%s", strings.Join(parts, " "))
}
