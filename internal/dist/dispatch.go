package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/commands"
	"repro/internal/dfg"
	"repro/internal/runtime"
)

// This file is the coordinator's dispatch-and-replay loop: one recovery
// ladder for every shard shape. A node is dispatched to its assigned
// worker; a transient pre-stream error retries the same worker with
// backoff; a mid-stream death marks the worker down and re-sends the
// input kept since the last durable point to a survivor, which skips
// the output prefix already delivered downstream; when no survivor
// remains, the coordinator runs the node itself.
//
// The shapes differ only in their input-replay source:
//
//   - framed (chunk relay): the unacknowledged window. Each output
//     frame acks the oldest chunk, and the bounded window is the
//     backpressure.
//   - range (file slice): nothing; the worker reads the file itself.
//   - streamed (contiguous streams): every sent chunk per input stream,
//     with a separator frame after each stream. Output is not 1:1 with
//     input, so nothing short of completion is durable.
//
// Framed replays only unacknowledged chunks, whose output never left;
// range and streamed re-runs reproduce the output from the start
// (shipped stages are deterministic), so they skip what was delivered.

// ExecRemote ships one remote node's work to its assigned worker and
// walks the recovery ladder above on failure. It implements
// runtime.RemoteExecutor.
func (p *Pool) ExecRemote(ctx context.Context, req *runtime.RemoteRequest) error {
	if req.Spec.Worker == "" {
		return runtime.ExecRemoteLocal(ctx, req)
	}
	src := &replay{req: req, retained: make([][]pendingChunk, len(req.Ins))}
	defer src.drop()
	tried := map[string]bool{}
	cur := req.Spec.Worker
	for {
		tried[cur] = true
		// An assigned worker already dead is skipped like one that dies
		// before its first byte: survivors first, the coordinator last.
		if p.alive(cur) {
			death, err := p.attempt(ctx, cur, src)
			if !death {
				return err
			}
			p.failover(cur)
		}
		next := p.pickSurvivor(tried)
		if next == "" {
			p.note(cur, func(st *WorkerStats) { st.Redispatched++ })
			return src.runLocal(ctx)
		}
		p.note(cur, func(st *WorkerStats) { st.RedispatchedRemote++ })
		cur = next
	}
}

// failover marks the worker down after a mid-stream death.
func (p *Pool) failover(name string) {
	p.markDown(name)
	p.note(name, func(st *WorkerStats) { st.Failures++ })
}

// pendingChunk is one input chunk the coordinator still owns because a
// replay may need it.
type pendingChunk struct {
	b       []byte
	release func()
}

func (pc pendingChunk) drop() {
	if pc.release != nil {
		pc.release()
	} else {
		commands.PutBlock(pc.b)
	}
}

// replay is one remote node's input-replay source, carried across its
// dispatch attempts (see the file comment).
type replay struct {
	req *runtime.RemoteRequest

	// Framed: window holds the unacknowledged chunks, oldest first, of
	// which the first sent are on the wire in the current attempt. slots
	// holds one token per window entry and its capacity is the window
	// bound. The sender and receiver goroutines share these under mu.
	mu     sync.Mutex
	window []pendingChunk
	sent   int
	slots  chan struct{}

	// Streamed: retained holds every chunk sent, per input stream;
	// consumed counts the input streams read to EOF. Only the sender
	// goroutine touches them while an attempt runs.
	retained [][]pendingChunk
	consumed int

	// delivered counts output bytes already forwarded downstream.
	delivered int64
}

func (r *replay) framed() bool { return r.req.Spec.Path == "" && !r.req.Spec.Streamed }

// skip is how many output bytes the next run reproduces that were
// already delivered: zero for framed, whose replay starts at the first
// chunk with no delivered output.
func (r *replay) skip() int64 {
	if r.framed() {
		return 0
	}
	return r.delivered
}

// begin readies the framed window for a new attempt: nothing is on the
// wire yet, and the carried chunks hold their slots.
func (r *replay) begin(size int) {
	if !r.framed() {
		return
	}
	if size < len(r.window) {
		size = len(r.window)
	}
	r.sent = 0
	r.slots = make(chan struct{}, size)
	for range r.window {
		r.slots <- struct{}{}
	}
}

// send writes the attempt's input frames: the replayed input first,
// then live input. Input-side failures come back marked fatal.
func (r *replay) send(ctx context.Context, out *reqBody, abort <-chan struct{}) error {
	switch {
	case r.req.Spec.Path != "":
		return nil // the worker reads its file range itself
	case r.req.Spec.Streamed:
		for i, in := range r.req.Ins {
			for _, pc := range r.retained[i] {
				if err := out.data(pc.b, false); err != nil {
					return err
				}
			}
			for i >= r.consumed {
				b, release, err := in.ReadChunk()
				if err == io.EOF {
					r.consumed = i + 1
					break
				}
				if err != nil {
					return runtime.MarkFatal(err)
				}
				// Retain before sending: once on the wire the chunk must
				// survive for replay whatever happens next.
				r.retained[i] = append(r.retained[i], pendingChunk{b: b, release: release})
				if err := out.data(b, false); err != nil {
					return err
				}
			}
			if _, err := out.frame(nil, false); err != nil {
				return err
			}
		}
		return nil
	}
	// Framed: send the window's chunks not yet on the wire, then take a
	// slot and park each live chunk in the window before sending it.
	for {
		r.mu.Lock()
		if r.sent < len(r.window) {
			b := r.window[r.sent].b
			r.sent++
			r.mu.Unlock()
			if err := out.data(b, true); err != nil {
				return err
			}
			continue
		}
		r.mu.Unlock()
		select {
		case r.slots <- struct{}{}:
		case <-abort:
			return net.ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
		b, release, err := r.req.In.ReadChunk()
		if err != nil {
			<-r.slots
			if err == io.EOF {
				return nil
			}
			return runtime.MarkFatal(err)
		}
		r.mu.Lock()
		r.window = append(r.window, pendingChunk{b: b, release: release})
		r.mu.Unlock()
	}
}

// ack settles one output frame. For framed plans it acknowledges the
// oldest chunk on the wire, whose output is then durable downstream.
func (r *replay) ack(watch *streamWatch) error {
	if !r.framed() {
		return nil
	}
	r.mu.Lock()
	if r.sent == 0 {
		r.mu.Unlock()
		return errors.New("sent more frames than it was given")
	}
	pc := r.window[0]
	r.window[0] = pendingChunk{}
	r.window = r.window[1:]
	r.sent--
	r.mu.Unlock()
	pc.drop()
	<-r.slots
	watch.fulfilled()
	return nil
}

// settled reports that a cleanly ended response owes nothing more:
// every framed chunk was acknowledged.
func (r *replay) settled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.window) == 0
}

// runLocal is the bottom of the ladder: the coordinator runs the node
// over the replayed input (kept chunks, then live input) and discards
// the output prefix workers already delivered.
func (r *replay) runLocal(ctx context.Context) error {
	local := *r.req
	local.Out = &skipWriter{out: r.req.Out, skip: r.skip()}
	if r.framed() {
		local.In = &replayReader{kept: &r.window, live: r.req.In}
	}
	if r.req.Spec.Streamed {
		local.Ins = make([]commands.ChunkReader, len(r.req.Ins))
		for i, in := range r.req.Ins {
			rr := &replayReader{kept: &r.retained[i]}
			if i >= r.consumed {
				rr.live = in
			}
			local.Ins[i] = rr
		}
	}
	return runtime.ExecRemoteLocal(ctx, &local)
}

// drop releases every chunk the replay still owns.
func (r *replay) drop() {
	for _, pc := range r.window {
		pc.drop()
	}
	for _, stream := range r.retained {
		for _, pc := range stream {
			pc.drop()
		}
	}
}

// replayReader yields kept chunks, handing over their ownership, then
// the live input (none once a stream was read to EOF).
type replayReader struct {
	kept *[]pendingChunk
	live commands.ChunkReader
}

func (rr *replayReader) ReadChunk() ([]byte, func(), error) {
	if kept := *rr.kept; len(kept) > 0 {
		*rr.kept = kept[1:]
		return kept[0].b, kept[0].drop, nil
	}
	if rr.live == nil {
		return nil, func() {}, io.EOF
	}
	return rr.live.ReadChunk()
}

// skipWriter discards the first skip bytes of a chunk stream, then
// forwards the rest chunk for chunk.
type skipWriter struct {
	out  commands.ChunkWriter
	skip int64
}

func (s *skipWriter) WriteChunk(b []byte) error {
	if s.skip > 0 {
		if int64(len(b)) <= s.skip {
			s.skip -= int64(len(b))
			commands.PutBlock(b)
			return nil
		}
		tail := append(commands.GetBlock(), b[s.skip:]...)
		commands.PutBlock(b)
		b, s.skip = tail, 0
	}
	return s.out.WriteChunk(b)
}

// attempt runs one dispatch of src's node on one worker: dial with
// retry, the inactivity watchdog, a sender goroutine writing src's
// input, and a receiver that acks or skips each output frame before
// forwarding it. death reports a failure the ladder recovers from by
// moving on — src holds everything the next run needs; any other error
// is final.
func (p *Pool) attempt(ctx context.Context, name string, src *replay) (death bool, err error) {
	p.note(name, func(st *WorkerStats) { st.Requests++ })
	plan, lz4On, err := p.handshake(src.req, name)
	if err != nil {
		return false, err
	}
	conn, bw, cw, err := p.dispatchConn(ctx, name, plan)
	if err != nil {
		return runtime.ClassifyRemoteError(err) != runtime.RemoteErrFatal, err
	}
	defer conn.Close()

	// The watchdog is armed while a frame is being written, while framed
	// chunks await their acks, and for good once the body is complete.
	// It is not armed while the sender merely waits for upstream input,
	// which may legitimately idle: the coordinator's split feeds its
	// outputs in turn, so a sibling's stall starves this shard.
	watch := newStreamWatch(p.chunkTimeoutVal(), conn)
	defer watch.stop()
	start := time.Now()
	src.begin(p.windowSize())
	body := &reqBody{p: p, name: name, bw: bw, cw: cw, comp: newCompressor(lz4On), watch: watch}
	abort := make(chan struct{})
	sendc := make(chan error, 1)
	go func() {
		// A panic in the sender must still report, and sever the
		// connection the receiver may be waiting on, or the attempt would
		// hang.
		defer func() {
			if r := recover(); r != nil {
				conn.Close()
				sendc <- runtime.AsPanicError("dispatch sender", r)
			}
		}()
		err := src.send(ctx, body, abort)
		if err == nil {
			err = body.close()
		} else if runtime.ClassifyRemoteError(err) == runtime.RemoteErrFatal {
			// The input failed or the run was cancelled: the worker will
			// never see the rest of the body, so stop waiting for it.
			conn.Close()
		}
		sendc <- err
	}()

	frames, recvErr := p.receive(conn, name, src, watch)
	close(abort)
	// Unblock a sender stuck writing to a dead or abandoned connection
	// before waiting for it.
	conn.Close()
	sendErr := <-sendc

	switch {
	case sendErr != nil && runtime.ClassifyRemoteError(sendErr) == runtime.RemoteErrFatal:
		// Input-side errors win: no worker failed.
		err = sendErr
	case recvErr == nil && src.settled():
		// The worker delivered its whole output and trailers. A request
		// write that failed after that (range and streamed workers stop
		// reading before the body's end) cannot change the bytes.
		if frames > 0 {
			perFrame := time.Since(start).Seconds() * 1000 / float64(frames)
			p.noteService(name, perFrame)
		}
		return false, nil
	case recvErr != nil:
		err = recvErr
	case sendErr != nil:
		err = sendErr
	default:
		err = fmt.Errorf("dist: worker %s closed with unacknowledged chunks", name)
	}
	if runtime.ClassifyRemoteError(err) != runtime.RemoteErrFatal {
		return true, err
	}
	if errors.Is(err, runtime.ErrDownstreamClosed) {
		return false, runtime.ErrDownstreamClosed
	}
	return false, err
}

// receive reads one attempt's response and forwards its output frames
// downstream past the prefix earlier runs delivered. It returns the
// number of frames read.
func (p *Pool) receive(conn net.Conn, name string, src *replay, watch *streamWatch) (int, error) {
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return 0, fmt.Errorf("dist: worker %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("dist: worker %s: %d: %s", name, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	tagged := p.noteResponse(name, resp.Header)
	out := &skipWriter{out: src.req.Out, skip: src.skip()}
	var pos int64
	for frames := 0; ; frames++ {
		raw, err := readFrame(resp.Body)
		if err == io.EOF {
			if msg := resp.Trailer.Get("X-Pash-Error"); msg != "" {
				return frames, fmt.Errorf("dist: worker %s: %s", name, msg)
			}
			return frames, nil
		}
		if err != nil {
			return frames, fmt.Errorf("dist: worker %s: %w", name, err)
		}
		fr, wireN, err := decodeDataPayload(raw, tagged)
		if err == nil {
			err = src.ack(watch)
		}
		if err != nil {
			commands.PutBlock(fr)
			return frames, fmt.Errorf("dist: worker %s: %w", name, err)
		}
		watch.touch()
		p.note(name, func(st *WorkerStats) {
			st.ChunksIn++
			st.BytesIn += int64(len(fr))
			st.WireBytesIn += int64(wireN)
		})
		pos += int64(len(fr))
		if err := out.WriteChunk(fr); err != nil {
			return frames, runtime.MarkFatal(fmt.Errorf("downstream: %w", err))
		}
		src.delivered = max(src.delivered, pos)
	}
}

// handshake builds frame 0 of an /exec request: the env-free plan, the
// worker plan-cache key, this run's environment, and lz4 when the
// compression policy offers it to this worker.
func (p *Pool) handshake(req *runtime.RemoteRequest, name string) ([]byte, bool, error) {
	spec := *req.Spec
	spec.Env = nil
	plan, err := dfg.EncodePlan(&spec)
	if err != nil {
		return nil, false, err
	}
	lz4On := p.compressFor(name)
	hs := wireHandshake{Wire: wireVersion, Key: req.Spec.Key, Env: req.Env, Plan: plan}
	if lz4On {
		hs.Features = []string{featureLZ4}
	}
	b, err := json.Marshal(&hs)
	return b, lz4On, err
}

// noteResponse digests a worker's /exec response headers: the
// plan-cache verdict feeds the stats row, and the echoed feature list
// reports whether response payloads are tagged (lz4 accepted).
func (p *Pool) noteResponse(name string, h http.Header) bool {
	switch h.Get("X-Pash-Plan-Cache") {
	case "hit":
		p.note(name, func(st *WorkerStats) { st.PlanCacheHits++ })
	case "miss":
		p.note(name, func(st *WorkerStats) { st.PlanCacheMisses++ })
	}
	for _, f := range strings.Split(h.Get("X-Pash-Features"), ",") {
		if strings.TrimSpace(f) == featureLZ4 {
			return true
		}
	}
	return false
}

// execConn opens the /exec request and sends the handshake frame,
// returning the connection and its chunked body writer. The whole
// handshake runs under the dial timeout, so a partitioned worker fails
// fast instead of hanging the dispatch; handshake failures come back
// marked retryable (no output byte was consumed yet).
func (p *Pool) execConn(ctx context.Context, name string, plan []byte) (net.Conn, *bufio.Writer, io.WriteCloser, error) {
	conn, err := p.dial(ctx, name)
	if err != nil {
		return nil, nil, nil, runtime.MarkRetryable(err)
	}
	conn.SetDeadline(time.Now().Add(p.dialTimeoutVal()))
	bw := bufio.NewWriter(conn)
	fmt.Fprintf(bw, "POST /exec HTTP/1.1\r\nHost: pash-worker\r\n"+
		"Content-Type: application/x-pash-frames\r\n"+
		"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n")
	cw := httputil.NewChunkedWriter(bw)
	if err := writeFrame(cw, plan); err != nil {
		conn.Close()
		return nil, nil, nil, runtime.MarkRetryable(err)
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, nil, nil, runtime.MarkRetryable(err)
	}
	conn.SetDeadline(time.Time{})
	return conn, bw, cw, nil
}

// dispatchConn runs the retry-with-backoff loop around execConn:
// transient handshake failures retry the same worker (bounded
// attempts), anything else surfaces.
func (p *Pool) dispatchConn(ctx context.Context, name string, plan []byte) (net.Conn, *bufio.Writer, io.WriteCloser, error) {
	attempts, _, _ := p.retryPolicy()
	for attempt := 0; ; attempt++ {
		conn, bw, cw, err := p.execConn(ctx, name, plan)
		if err == nil {
			return conn, bw, cw, nil
		}
		if runtime.ClassifyRemoteError(err) != runtime.RemoteErrRetryable ||
			attempt+1 >= attempts || ctx.Err() != nil {
			return nil, nil, nil, err
		}
		p.note(name, func(st *WorkerStats) { st.Retries++ })
		if berr := p.backoffWait(ctx, attempt); berr != nil {
			return nil, nil, nil, err
		}
	}
}

// reqBody writes one attempt's request body after frame 0.
type reqBody struct {
	p     *Pool
	name  string
	bw    *bufio.Writer
	cw    io.WriteCloser
	comp  *compressor
	watch *streamWatch
}

// frame writes and flushes one frame with the watchdog armed; an acked
// frame stays armed until its ack arrives. It returns the payload's
// on-the-wire size.
func (b *reqBody) frame(payload []byte, acked bool) (int, error) {
	b.watch.touch()
	b.watch.expect()
	n, err := b.comp.writeDataFrame(b.cw, payload)
	if err == nil {
		err = b.bw.Flush()
	}
	if !acked {
		b.watch.fulfilled()
	}
	b.watch.touch()
	return n, err
}

// data writes one input chunk and meters it.
func (b *reqBody) data(chunk []byte, acked bool) error {
	wireN, err := b.frame(chunk, acked)
	if err != nil {
		return err
	}
	b.p.note(b.name, func(st *WorkerStats) {
		st.ChunksOut++
		st.BytesOut += int64(len(chunk))
		st.WireBytesOut += int64(wireN)
	})
	return nil
}

// close ends the chunked body. From here the worker owes the rest of
// its output unconditionally, so the watchdog stays armed.
func (b *reqBody) close() error {
	b.watch.touch()
	b.watch.expect()
	err := b.cw.Close()
	if err == nil {
		_, err = io.WriteString(b.bw, "\r\n")
	}
	if err == nil {
		err = b.bw.Flush()
	}
	return err
}

// streamWatch is the per-stream inactivity watchdog: when frames stop
// moving in either direction for the chunk timeout while the stream
// still owes work, it kills the connection — turning a silent
// partition or wedged worker into an ordinary detected death the
// failover path already handles.
type streamWatch struct {
	lastNano atomic.Int64
	waiting  atomic.Int64 // frames in flight, acks outstanding, or 1 once the body is complete
	done     chan struct{}
}

func newStreamWatch(timeout time.Duration, conn net.Conn) *streamWatch {
	w := &streamWatch{done: make(chan struct{})}
	w.touch()
	if timeout <= 0 {
		return w
	}
	go func() {
		// A watchdog panic must not take the process down, and must not
		// leave the stream unwatched either: record it and sever the
		// connection so the failover ladder takes over.
		defer func() {
			if r := recover(); r != nil {
				runtime.AsPanicError("stream watchdog", r)
				conn.Close()
			}
		}()
		tick := timeout / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-t.C:
				idle := time.Since(time.Unix(0, w.lastNano.Load()))
				if idle >= timeout && w.waiting.Load() > 0 {
					conn.Close()
					return
				}
			}
		}
	}()
	return w
}

func (w *streamWatch) touch()     { w.lastNano.Store(time.Now().UnixNano()) }
func (w *streamWatch) stop()      { close(w.done) }
func (w *streamWatch) expect()    { w.waiting.Add(1) }
func (w *streamWatch) fulfilled() { w.waiting.Add(-1) }
