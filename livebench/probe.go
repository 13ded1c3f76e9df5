package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared: for a minute or more at a
// time it can run the whole stack 25–100% slower, with no change in the
// program. Rates and latencies are therefore also reported adjusted to a
// reference host speed. Before each segment's stack starts and after it
// stops, hostProbe times a fixed integer loop on every CPU. The loop is the
// benchmark's own code and runs while no stack process exists, so no
// change to the program under test can move it. A segment's host factor is
// the mean probe time around it over probeRefUS: above 1 on a host slower
// than the reference, below 1 on a faster one.

// probeRefUS is hostProbe's time on the 2-vCPU Intel Xeon host the
// benchmark was sized on, in a quiet period. It only sets the scale of the
// adjusted metrics; any fixed value would do.
const probeRefUS = 37500

// probeIters is the loop length per CPU, about 37 ms on the reference host.
const probeIters = 6_000_000

var probeSink atomic.Uint64

// hostProbe returns the median, over five repetitions, of the wall time in
// microseconds for one goroutine per CPU to each finish probeIters steps
// of splitmix64.
func hostProbe() float64 {
	width := runtime.NumCPU()
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func(x uint64) {
				defer wg.Done()
				for i := 0; i < probeIters; i++ {
					x = splitmix(x)
				}
				probeSink.Add(x) // keeps the loop from being optimised away
			}(uint64(w))
		}
		wg.Wait()
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(ts)
}
