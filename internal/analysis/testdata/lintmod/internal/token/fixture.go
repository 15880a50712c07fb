// Package token is the golden fixture for the escape/borrow layer:
// borrowflow (this import-path suffix is in the default borrow
// packages) and poolsafe (unscoped). Each positive case carries a
// trailing `// want` annotation; the negatives prove the copy-out and
// deferred-Put shapes stay silent.
package token

import (
	"context"
	"sync"
)

// retained is the package-level sink the positive cases leak into.
var retained []byte

// holder models caller-owned storage reached through a parameter.
type holder struct{ view []byte }

// Slice is a stage artifact wrapping a byte view.
type Slice struct{ Raw []byte }

// --- borrowflow: stores that outlive the call ---

// keepGlobal parks the borrowed view in package-level storage.
func keepGlobal(b []byte) {
	retained = b // want borrowflow "is stored in package-level storage"
}

// keepField stores a sub-slice through a parameter: the caller's
// struct now aliases the source buffer.
func keepField(h *holder, b []byte) {
	h.view = b[2:] // want borrowflow "is stored through storage that outlives the call"
}

// keepSelect sends the view away through one select arm — the borrow
// survives the branch join.
func keepSelect(ch chan []byte, done chan struct{}, b []byte) {
	sub := b[4:]
	select {
	case ch <- sub: // want borrowflow "is sent on a channel"
	case <-done:
	}
}

// keepGoArg hands the borrow to a goroutine by argument.
func keepGoArg(b []byte) {
	go consume(b) // want borrowflow "is handed to a goroutine"
}

// keepGoClosure captures the borrow in a goroutine closure instead of
// passing it — a different AST shape, the same leak.
func keepGoClosure(b []byte) {
	go func() { // want borrowflow "is captured by a goroutine closure"
		consume(b)
	}()
}

// consume only measures the view; it neither stores nor returns it.
func consume(b []byte) { _ = len(b) }

// retainDeep stores its parameter; handoff below is caught at the call
// site through retainDeep's escape summary, not by re-analyzing it.
func retainDeep(b []byte) {
	retained = b // want borrowflow "is stored in package-level storage"
}

func handoff(b []byte) {
	retainDeep(b[8:]) // want borrowflow "which retains it"
}

// CutRaw is an exported stage-shaped function returning a sub-slice of
// a sub-slice of its input: a stage artifact must copy out instead.
func CutRaw(ctx context.Context, b []byte) (Slice, error) {
	head := b[1:]
	cell := head[2:4]
	return Slice{Raw: cell}, nil // want borrowflow "is returned across the stage boundary"
}

// CopyRaw is the same boundary with the mandated copy-out: silent.
func CopyRaw(ctx context.Context, b []byte) (Slice, error) {
	out := make([]byte, len(b))
	copy(out, b)
	return Slice{Raw: out}, nil
}

// appendCopy severs provenance by appending onto fresh storage.
func appendCopy(b []byte) {
	retained = append([]byte(nil), b...)
}

// view returns a sub-slice from an unexported helper: that only lifts
// the borrow to the caller and is not a finding.
func view(b []byte) []byte { return b[1:] }

// --- poolsafe: checkout discipline ---

// bufPool hands out scratch buffers.
var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 64) }}

// getPutDeferred checks out, defers the Put, and returns early on one
// path: the deferred Put covers every exit, so this is silent.
func getPutDeferred(n int) int {
	buf := bufPool.Get().([]byte)
	defer bufPool.Put(buf)
	if n == 0 {
		return 0
	}
	buf = append(buf, byte(n))
	return len(buf)
}

// putSometimes misses the Put when n is even.
func putSometimes(n int) {
	buf := bufPool.Get().([]byte) // want poolsafe "does not reach bufPool.Put on every path"
	if n%2 == 1 {
		bufPool.Put(buf)
	}
}

// leakCheckout publishes the checkout while it is still checked out.
func leakCheckout() {
	buf := bufPool.Get().([]byte)
	retained = buf // want poolsafe "is stored in package-level storage"
	bufPool.Put(buf)
}

// useAfterPut touches the buffer after returning it to the pool.
func useAfterPut() byte {
	buf := bufPool.Get().([]byte)
	buf = append(buf, 1)
	bufPool.Put(buf)
	return buf[0] // want poolsafe "used after bufPool.Put"
}
