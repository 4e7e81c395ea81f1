package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestCorruptedOutputCounted shows the oracle fires before anyone trusts
// a clean run: one pass of batch-stream with the second job's output
// corrupted by one byte must count exactly that job as failed.
func TestCorruptedOutputCounted(t *testing.T) {
	ctx := context.Background()
	b := newBatch(streamScripts, streamInputs)
	if err := b.setup(ctx, t.TempDir(), 7); err != nil {
		t.Fatal(err)
	}
	ws := b.passes(0, func(i int) (digest, int, error) {
		w := newDigestWriter()
		code, err := b.sess.Run(ctx, b.scripts[i].src, strings.NewReader(""), w, nil)
		if i == 1 {
			w.Write([]byte{'x'})
		}
		return w.sum(), code, err
	})
	samples := allSamples(ws)
	if len(samples) != len(streamScripts) {
		t.Fatalf("one pass ran %d jobs, want %d", len(samples), len(streamScripts))
	}
	if got := failures(samples); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
	if samples[1].ok {
		t.Fatalf("the corrupted job was judged correct")
	}
	if e := summarize(ws); e.jobs != len(samples)-1 {
		t.Fatalf("throughput counts %d succeeded jobs, want %d", e.jobs, len(samples)-1)
	}
}

// TestSelfTimesAddUp checks the self-time attribution on a job with a
// serial part and two concurrent children.
func TestSelfTimesAddUp(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Job: 1, ID: 0, Parent: -1, Name: "job", Start: at(0), End: at(100)},
		{Job: 1, ID: 1, Parent: 0, Name: "shell.parse", Layer: "shell", Start: at(0), End: at(10)},
		{Job: 1, ID: 2, Parent: 0, Name: "runtime.execute", Layer: "runtime", Start: at(20), End: at(100)},
		{Job: 1, ID: 3, Parent: 2, Name: "active", Layer: "commands", Start: at(20), End: at(60)},
		{Job: 1, ID: 4, Parent: 2, Name: "active", Layer: "agg", Start: at(20), End: at(40)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"":         10 * time.Millisecond, // 10..20: only the job span is open
		"shell":    10 * time.Millisecond,
		"commands": 30 * time.Millisecond, // half of 20..40, all of 40..60
		"agg":      10 * time.Millisecond,
		"runtime":  40 * time.Millisecond, // 60..100
	}
	var sum time.Duration
	for l, d := range got {
		sum += d
		if d != want[l] {
			t.Errorf("layer %q: %v, want %v", l, d, want[l])
		}
	}
	if sum != 100*time.Millisecond {
		t.Errorf("layers sum to %v, want the job's 100ms", sum)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEndNames)
	check("per_layer", cfg.PerLayer, perLayerNames)
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not built in", w.Name)
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(cfg.Workloads), len(workloads))
	}
}
