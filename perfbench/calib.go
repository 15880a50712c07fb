package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark machine is shared: other tenants slow it by up to
// several times for minutes on end, and nothing inside one run can wait
// that out. So every untraced run also times a fixed piece of work that
// uses none of the program's code (calibWork), between its own units of
// work, and reports its timings scaled to a machine on which that work
// takes calibRefMs: a run on a slowed machine is slowed in both, and
// the ratio cancels. A change to the program moves only the program's
// side. The raw timings and the scale are printed on the human lines.

// calibRefMs is about what one calibration takes on an idle 2-vCPU
// Xeon, on one goroutine or on two; it only sets the scale of the
// reported timings.
const calibRefMs = 40.0

// The calibration tables: 512 KB of keys to sort and a 256 KB
// open-addressing hash set. Both fit in a core's own cache: a sweep of
// a table larger than that follows the shared cache, which other
// tenants contend for; on a 2-vCPU Xeon such a sweep slowed up to three
// times, far more than the program did, and calibrating by it widened
// the run-to-run spread instead of narrowing it.
const (
	calibKeys  = 1 << 16
	calibSlots = 1 << 15
)

// calibBuf is one goroutine's tables. They are mapped outside the Go
// heap, so calibrating neither grows the heap, nor moves the
// collector's pacing, nor shows in the memory metrics.
type calibBuf struct {
	keys, slots []uint64
}

func newCalibBuf() (calibBuf, error) {
	mem, err := syscall.Mmap(-1, 0, 8*(calibKeys+calibSlots), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return calibBuf{}, fmt.Errorf("mapping calibration tables: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibKeys+calibSlots)
	return calibBuf{keys: words[:calibKeys], slots: words[calibKeys:]}, nil
}

// calibWork is the fixed work: sorts of pseudo-random keys
// (unpredictable branches, like the solver's search) and inserts into a
// hash set (hashing and probing, like the caches and token interning).
// x seeds the pseudo-random stream.
func calibWork(b calibBuf, x uint64) uint64 {
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 16
	}
	for r := 0; r < 6; r++ {
		for i := range b.keys {
			b.keys[i] = next()
		}
		slices.Sort(b.keys)
	}
	var probes uint64
	for r := 0; r < 50; r++ {
		clear(b.slots)
		for i := 0; i < calibSlots/2; i++ {
			k := next() | 1
			for h := (k * 0x9e3779b97f4a7c15) >> 49; ; h = (h + 1) & (calibSlots - 1) {
				probes++
				if b.slots[h] == 0 || b.slots[h] == k {
					b.slots[h] = k
					break
				}
			}
		}
	}
	return b.keys[calibKeys/2] + probes
}

// calibrator collects a run's calibration timings. A nil calibrator,
// as traced runs use, does nothing.
type calibrator struct {
	bufs []calibBuf
	// setup and window are the calibration times (ms) taken around the
	// set-ups and inside the measurement window.
	setup, window latencies
	inWindow      bool
	spent         time.Duration // total time spent calibrating
	sink          uint64
}

// newCalibrator maps the tables of `threads` goroutines.
func newCalibrator(threads int) (*calibrator, error) {
	c := &calibrator{}
	for g := 0; g < threads; g++ {
		b, err := newCalibBuf()
		if err != nil {
			return nil, err
		}
		c.bufs = append(c.bufs, b)
	}
	return c, nil
}

// sample times calibWork on as many goroutines at once as the workload
// keeps CPUs busy.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	runtime.GC() // no collection of the program's garbage runs alongside
	var wg sync.WaitGroup
	sums := make([]uint64, len(c.bufs))
	start := time.Now()
	for g := range c.bufs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = calibWork(c.bufs[g], uint64(g)+1)
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	if c.inWindow {
		c.window = append(c.window, ms(d))
	} else {
		c.setup = append(c.setup, ms(d))
	}
	c.spent += d
	for _, s := range sums {
		c.sink += s
	}
}

// startWindow files later samples under the measurement window.
func (c *calibrator) startWindow() {
	if c != nil {
		c.inWindow = true
	}
}

// scales are the run's slowdowns against the reference machine, during
// set-up and during the measurement window: the median calibration time
// over the reference time (1 without samples).
func (c *calibrator) scales() (setup, window float64) {
	if c == nil {
		return 1, 1
	}
	scale := func(l latencies) float64 {
		if len(l) == 0 {
			return 1
		}
		return median(l) / calibRefMs
	}
	return scale(c.setup), scale(c.window)
}

// describe renders the calibration for the human-readable report.
func (c *calibrator) describe() string {
	su, win := c.scales()
	return fmt.Sprintf("calibration against %.0fms: set-up scale %.4f, samples ms %.1f; window scale %.4f, samples ms %.1f",
		calibRefMs, su, c.setup, win, c.window)
}

// calibrate rescales a run's timings to the reference machine: set-up
// time by the set-up scale, the window's times and rates by the
// window's.
func calibrate(values map[string]float64, setup, window float64) {
	values["setup_s"] /= setup
	values["latency_ms"] /= window
	values["pages_per_s"] *= window
}
