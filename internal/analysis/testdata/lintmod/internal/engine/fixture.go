// Package engine is a lint fixture for the CFG-based concurrency
// analyzers: its import path ends in internal/engine, so goroleak,
// lockdiscipline and chancontract all apply (as do the determinism and
// ctxdiscipline scopes, which the fixture deliberately stays clean
// for). Every planted violation carries a trailing
// `// want <analyzer> "<substring>"` expectation consumed by
// TestFixtureDiagnostics; the unannotated shapes are the accepted
// idioms and must stay silent.
package engine

import (
	"context"
	"sync"
)

// Leak launches a goroutine that sends on a channel no consumer is
// guaranteed to drain: no exit proof.
func Leak(sink chan<- int) {
	go func() { // want goroleak "no provable exit path"
		sink <- 1
	}()
}

// Numbers returns a channel its producer never closes: the goroutine
// leaks and every caller ranging the channel strands.
func Numbers(n int) <-chan int {
	ch := make(chan int)
	go func() { // want goroleak "no provable exit path"
		for i := 0; i < n; i++ {
			ch <- i
		}
	}()
	return ch // want chancontract "returns channel ch but never closes it"
}

// Stream is the accepted producer shape: the producing goroutine owns
// the channel, closes it on every path (defer), and selects on
// ctx.Done so cancellation bounds its lifetime. Clean for both
// goroleak and chancontract.
func Stream(ctx context.Context, n int) <-chan int {
	ch := make(chan int)
	go func() {
		defer close(ch)
		for i := 0; i < n; i++ {
			select {
			case ch <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// Pump is the accepted worker shape: the goroutine ranges over a
// channel the launcher closes on every path after the launch. Clean.
func Pump(vals []int) int {
	feed := make(chan int)
	sum := make(chan int)
	go func() {
		total := 0
		for v := range feed {
			total += v
		}
		sum <- total
	}()
	for _, v := range vals {
		feed <- v
	}
	close(feed)
	return <-sum
}

// Watch is clean: the goroutine receives from ctx.Done, so
// cancellation bounds its lifetime even though ticks never closes.
func Watch(ctx context.Context, ticks <-chan int) {
	go func() {
		for {
			select {
			case <-ticks:
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Park would leak (it ranges a channel nobody provably closes), but
// the monitor is wanted for the process lifetime: the same-line ignore
// directive suppresses the finding.
func Park(beat <-chan int) {
	go func() { //tableseglint:ignore goroleak fixture: process-lifetime monitor
		for range beat {
		}
	}()
}

// Counter is the mutex-discipline fixture receiver.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Bump leaves the mutex held on the early-return path.
func (c *Counter) Bump(limit int) bool {
	c.mu.Lock() // want lockdiscipline "c.mu.Lock is not released on every path"
	if c.n >= limit {
		return false
	}
	c.n++
	c.mu.Unlock()
	return true
}

// Publish blocks on a channel send while holding the mutex: the defer
// releases on every path, but not before the send can park.
func (c *Counter) Publish(out chan<- int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out <- c.n // want lockdiscipline "c.mu held across channel send"
}

// Snapshot copies under the lock and sends after releasing: clean.
func (c *Counter) Snapshot(out chan<- int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	out <- n
}

// Hold blocks while holding the lock by design (the consumer is part
// of the same test harness): the line-above ignore directive
// suppresses the finding.
func (c *Counter) Hold(out chan<- int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//tableseglint:ignore lockdiscipline fixture: consumer is guaranteed ready
	out <- c.n
}

// Finish closes the same channel twice: a latent double-close panic.
func Finish() {
	ch := make(chan int)
	close(ch)
	close(ch) // want chancontract "closed in more than one place"
}

// Drain wrongly closes the channel it consumes: a receiver never owns
// the close.
func Drain(in chan int) int {
	total := 0
	for v := range in {
		total += v
	}
	close(in) // want chancontract "closes channel parameter in"
	return total
}

// Bare carries an ignore directive without a reason, which suppresses
// nothing: the finding must still surface.
func Bare(ch chan int) {
	//tableseglint:ignore chancontract
	close(ch) // want chancontract "closes channel parameter ch"
}

// Merge closes the fan-in output while its forwarder goroutines may
// still be sending: a send-on-closed-channel race.
func Merge(a, b <-chan int) <-chan int {
	out := make(chan int)
	var wg sync.WaitGroup
	wg.Add(2)
	forward := func(in <-chan int) {
		defer wg.Done()
		for v := range in {
			out <- v
		}
	}
	go forward(a)
	go forward(b)
	close(out) // want chancontract "close of out can race sends"
	return out
}

// Gather is the accepted fan-in shape: a dedicated closer joins the
// forwarders (wg.Wait) before closing. Clean for chancontract, and the
// closer goroutine is a joiner, so clean for goroleak too.
func Gather(a, b <-chan int) <-chan int {
	out := make(chan int)
	var wg sync.WaitGroup
	wg.Add(2)
	forward := func(in <-chan int) {
		defer wg.Done()
		for v := range in {
			out <- v
		}
	}
	go forward(a)
	go forward(b)
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
