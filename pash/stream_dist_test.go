package pash

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dist"
)

// startStreamWorker launches a dist worker over a unix socket for the
// streaming chaos test.
func startStreamWorker(t *testing.T, dir, name string) string {
	t.Helper()
	sock := filepath.Join(dir, name)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: dist.NewWorker(nil, dir).Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "unix:" + sock
}

// TestStreamDistWorkerKillMidStream kills a worker mid-stream and
// asserts the distributed plane heals under the streaming job: the
// pool redispatches the dead worker's shards to the survivor, every
// window still completes, and the stream's output is byte-identical to
// an unfaulted run. This is the distributed leg of checkpointed
// failover — the job itself never restarts, so windows (and therefore
// checkpoints) are never replayed.
func TestStreamDistWorkerKillMidStream(t *testing.T) {
	dir := t.TempDir()
	w1 := startStreamWorker(t, dir, "w1.sock")
	w2 := startStreamWorker(t, dir, "w2.sock")

	var data bytes.Buffer
	for i := 0; i < 12000; i++ {
		fmt.Fprintf(&data, "the quick zebra %d jumps over the lazy dog\n", i)
	}
	script := "tr a-z A-Z | grep ZEBRA"

	// The fault targets w1; the target is fixed before the run because
	// the pool's eligible set drops a killed worker.
	target := w1
	inj := dist.NewInjector(1)
	streamOnce := func(spec *dist.FaultSpec) (string, []dist.WorkerStats) {
		pool := NewWorkerPool(w1, w2)
		pool.SetDialTimeout(500 * time.Millisecond)
		pool.SetChunkTimeout(500 * time.Millisecond)
		pool.SetRetryPolicy(3, 10*time.Millisecond, 100*time.Millisecond)
		if spec != nil {
			inj.Set(target, *spec)
			pool.SetFaultInjector(inj)
		}
		sess := NewSession(DefaultOptions(8))
		sess.Dir = dir
		sess.UseWorkers(pool)

		var out bytes.Buffer
		job, err := sess.Start(context.Background(), script,
			JobIO{Stdout: &out},
			WithStreamInput(StreamConfig{
				Reader:      bytes.NewReader(data.Bytes()),
				Interval:    time.Hour,
				WindowBytes: 64 << 10,
			}))
		if err != nil {
			t.Fatal(err)
		}
		code, err := job.Wait()
		if err != nil || code != 0 {
			t.Fatalf("stream job (fault %v) = code %d, err %v", spec, code, err)
		}
		st := job.Stats()
		if st.Stream == nil || st.Stream.Windows < 2 {
			t.Fatalf("expected a multi-window stream, got %+v", st.Stream)
		}
		return out.String(), pool.Stats()
	}

	clean, _ := streamOnce(nil)
	if len(clean) == 0 {
		t.Fatal("clean streaming run produced no output")
	}
	faulted, stats := streamOnce(&dist.FaultSpec{Kind: dist.FaultKill, AfterBytes: 12_000, Times: 1})
	if faulted != clean {
		t.Fatalf("output diverged under worker kill (%d vs %d bytes) — corruption or loss",
			len(faulted), len(clean))
	}
	if inj.Fired(target) == 0 {
		t.Fatal("kill fault never fired — recovery not exercised")
	}
	var healed int64
	for _, st := range stats {
		healed += st.RedispatchedRemote + st.Redispatched + st.Retries
	}
	if healed == 0 {
		t.Error("worker kill left no redispatch/retry trace — fault never exercised the recovery path")
	}
}
