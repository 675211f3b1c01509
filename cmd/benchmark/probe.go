package main

import (
	"runtime"
	"time"
)

// The machine the benchmark runs on is shared, and its speed drifts with
// what the other tenants do: the same operation can take 70% longer in
// one run than in the next, in CPU time as well as wall time. Code that
// hands goroutines over and allocates slows the most, plain arithmetic
// hardly at all. The simulator spends much of its time handing
// goroutines over, and a probe that does only that, timed right after
// each operation, follows the drift: operations and the probes after
// them move together. So an untraced run probes the host after every
// set-up and every step of its loop, and scales each time by refProbe
// over its probe, as if the host had run at the speed at which the
// probe takes refProbe. README.md gives the measurements.

const (
	// probeTrips is how many round trips a probe makes.
	probeTrips = 50_000
	// refProbe is the probe's time on the reference machine (2-vCPU
	// Firecracker VM, Intel Xeon, Go 1.24) while other tenants are quiet.
	refProbe = 20 * time.Millisecond
)

// hostProbe collects the garbage the operation before it left, then
// times probeTrips round trips between two goroutines over unbuffered
// channels, in seconds. The round trips allocate nothing, so the
// program's heap does not change their time. The collection also lets
// every operation start from a collected heap, as a campaign in a fresh
// `interference` process does.
func hostProbe() float64 {
	runtime.GC()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	start := time.Now()
	for i := 0; i < probeTrips; i++ {
		ping <- i
		<-pong
	}
	d := time.Since(start).Seconds()
	close(ping)
	<-pong // the echo goroutine has returned
	return d
}
