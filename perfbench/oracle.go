package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"os/exec"
)

// digest is the SHA-256 of a job's standard output.
type digest [sha256.Size]byte

// shellDigest runs script with the system shell and host tools under
// LC_ALL=C in dir and digests its output. This is the independent
// oracle: the program under test never computes its own reference.
func shellDigest(ctx context.Context, dir, script string, stdin []byte) (digest, error) {
	cmd := exec.CommandContext(ctx, "sh", "-c", script)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "LC_ALL=C")
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	w := newDigestWriter()
	var stderr bytes.Buffer
	cmd.Stdout = w
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return digest{}, fmt.Errorf("reference %q: %w: %s", script, err, stderr.String())
	}
	return w.sum(), nil
}

// digestWriter hashes what a job writes without keeping it.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (w *digestWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *digestWriter) sum() digest {
	var d digest
	w.h.Sum(d[:0])
	return d
}

// judge decides whether one job succeeded: no error, exit status 0 and
// output identical to the reference.
func judge(got, want digest, code int, err error) bool {
	return err == nil && code == 0 && got == want
}

// failures counts the samples that failed.
func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}
