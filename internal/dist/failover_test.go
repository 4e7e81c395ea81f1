package dist_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/pash"
)

// killingHandler aborts the HTTP connection after roughly afterBytes of
// response body have streamed — a worker dying mid-stream, injected
// deterministically. Only the first request dies; by then the pool has
// marked the worker down, so nothing else should arrive.
type killingHandler struct {
	inner      http.Handler
	afterBytes int64
	written    atomic.Int64 // cumulative across the worker's requests
	killed     atomic.Bool
}

type killingWriter struct {
	http.ResponseWriter
	h *killingHandler
}

func (kw *killingWriter) Write(p []byte) (int, error) {
	if kw.h.written.Load() >= kw.h.afterBytes && kw.h.killed.CompareAndSwap(false, true) {
		panic(http.ErrAbortHandler)
	}
	n, err := kw.ResponseWriter.Write(p)
	kw.h.written.Add(int64(n))
	return n, err
}

func (kw *killingWriter) Flush() {
	if f, ok := kw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (kw *killingWriter) EnableFullDuplex() error {
	return http.NewResponseController(kw.ResponseWriter).EnableFullDuplex()
}

func (h *killingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/exec" && !h.killed.Load() {
		h.inner.ServeHTTP(&killingWriter{ResponseWriter: w, h: h}, r)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// startPoolWithKiller launches healthy workers plus one that dies after
// streaming ~afterBytes of one response.
func startPoolWithKiller(t *testing.T, healthy int, dir string, afterBytes int64) (*pash.WorkerPool, *killingHandler) {
	t.Helper()
	kh := &killingHandler{inner: dist.NewWorker(nil, dir).Handler(), afterBytes: afterBytes}
	kts := httptest.NewServer(kh)
	t.Cleanup(kts.Close)
	names := []string{kts.URL}
	for i := 0; i < healthy; i++ {
		ts := httptest.NewServer(dist.NewWorker(nil, dir).Handler())
		t.Cleanup(ts.Close)
		names = append(names, ts.URL)
	}
	return pash.NewWorkerPool(names...), kh
}

// deathCases drive the worker-death tests: a mixed pipeline whose
// first dial picks which shape dies, then one script per shard shape so
// each input-replay source is killed on purpose.
var deathCases = []struct {
	name     string
	script   string
	sharedFS bool
}{
	{"mixed", `cat in.txt | tr A-Z a-z | grep the | sort`, false},
	{"mixed-shared-fs", `cat in.txt | tr A-Z a-z | grep the | sort`, true},
	{"framed", `cat in.txt | tr A-Z a-z | grep the`, false},
	{"range", `cat in.txt | tr A-Z a-z | grep the`, true},
	{"streamed", `cat in.txt | sort`, false},
}

// TestWorkerDeathMidStream: a worker killed mid-pipeline does not
// corrupt output — and because a healthy peer exists, the node's kept
// input re-dispatches to the SURVIVOR, not to the coordinator. Local
// fallback with a live peer available is a bug.
func TestWorkerDeathMidStream(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(30000, 7)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range deathCases {
		local := runScript(t, tc.script, dir, 8, nil)
		for _, afterBytes := range []int64{0, 1, 40_000} {
			pool, kh := startPoolWithKiller(t, 1, dir, afterBytes)
			pool.SetSharedFS(tc.sharedFS)
			got := runScript(t, tc.script, dir, 8, pool)
			if !kh.killed.Load() {
				t.Fatalf("%s kill@%d: killer worker never died (not exercised)", tc.name, afterBytes)
			}
			if got != local {
				t.Fatalf("%s kill@%d: output corrupted after worker death (%d vs %d bytes)",
					tc.name, afterBytes, len(got), len(local))
			}
			var local64, remote64 int64
			unhealthy := 0
			for _, st := range pool.Stats() {
				local64 += st.Redispatched
				remote64 += st.RedispatchedRemote
				if !st.Healthy {
					unhealthy++
				}
			}
			if unhealthy != 1 {
				t.Errorf("%s kill@%d: %d workers down, want exactly the killed one", tc.name, afterBytes, unhealthy)
			}
			if remote64 == 0 {
				t.Errorf("%s kill@%d: no work re-dispatched to the surviving worker", tc.name, afterBytes)
			}
			if local64 != 0 {
				t.Errorf("%s kill@%d: %d nodes ran on the coordinator while a healthy peer existed",
					tc.name, afterBytes, local64)
			}
		}
	}
}

// TestWorkerDeathNoSurvivor: when the dying worker was the only one,
// the recovery ladder bottoms out at the coordinator's local chain —
// output still byte-identical, counted as local re-dispatch.
func TestWorkerDeathNoSurvivor(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(makeInput(20000, 11)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range deathCases {
		pool, kh := startPoolWithKiller(t, 0, dir, 1)
		pool.SetSharedFS(tc.sharedFS)
		local := runScript(t, tc.script, dir, 8, nil)
		got := runScript(t, tc.script, dir, 8, pool)
		if !kh.killed.Load() {
			t.Fatalf("%s: killer worker never died (not exercised)", tc.name)
		}
		if got != local {
			t.Fatalf("%s: output corrupted after sole worker death (%d vs %d bytes)",
				tc.name, len(got), len(local))
		}
		var local64 int64
		for _, st := range pool.Stats() {
			local64 += st.Redispatched
		}
		if local64 == 0 {
			t.Errorf("%s: no local re-dispatch recorded with an empty survivor set", tc.name)
		}
	}
}

// TestDistributedEquivalenceProperty: distributed == local, byte for
// byte, under random worker counts (1-8), random input shapes (line
// lengths, trailing unterminated lines), random windows, and one
// injected mid-stream worker kill per round. Run under -race in CI.
func TestDistributedEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		lines := 500 + rng.Intn(20000)
		input := makeInput(lines, rng.Int63())
		if rng.Intn(2) == 0 && len(input) > 0 {
			// Unterminated final line.
			input = input[:len(input)-1]
		}
		if err := os.WriteFile(filepath.Join(dir, "in.txt"), []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		workers := 1 + rng.Intn(8)
		kill := rng.Intn(2) == 0
		var pool *pash.WorkerPool
		if kill {
			pool, _ = startPoolWithKiller(t, workers, dir, int64(rng.Intn(60_000)))
		} else {
			pool = startWorkers(t, workers, dir)
		}
		pool.SetSharedFS(rng.Intn(2) == 0)
		pool.SetWindow(1 + rng.Intn(64))
		width := 2 + rng.Intn(10)
		script := distScripts[rng.Intn(len(distScripts))]
		local := runScript(t, script, dir, width, nil)
		got := runScript(t, script, dir, width, pool)
		if got != local {
			t.Fatalf("round %d (workers=%d width=%d kill=%v script=%q): diverged (%d vs %d bytes)",
				round, workers, width, kill, script, len(got), len(local))
		}
	}
}
