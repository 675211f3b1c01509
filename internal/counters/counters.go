// Package counters emulates the hardware performance counters the paper
// reads with pmu-tools/perf: per-core cycle counts and cycles stalled on
// memory accesses, plus byte counters for traffic accounting.
//
// Compute kernels report, for every execution slice, how many cycles
// they spent retiring work and how many they spent stalled waiting for
// memory (the simulator knows ground truth: a roofline kernel running at
// rate r below its compute ceiling c is stalled a fraction 1−r/c of the
// time). Figure 10 plots exactly this stall fraction.
package counters

import "fmt"

// Core accumulates counters for one core.
type Core struct {
	Cycles      float64 // total busy cycles
	StallCycles float64 // cycles stalled on memory
	Flops       float64
	MemBytes    float64
}

// Set holds the counters of one node.
type Set struct {
	// cores grows up to the highest core touched so far: a node that
	// never computes keeps it nil, and one whose only work is the send
	// overhead on core 0, like every host of a fabric world, keeps one
	// entry. The sums read the cores past its end as zeros.
	cores []Core
	n     int // core count
	// BytesSent/BytesReceived count NIC traffic, with the time spent
	// sending (for the "sending bandwidth" metric of §6).
	BytesSent     float64
	BytesReceived float64
	SendBusySecs  float64
	// Fault/recovery accounting, fed by the MPI layer under fault
	// injection (all zero on healthy runs): retransmissions performed,
	// retransmission-timeout expiries, and transmissions the injector
	// dropped or corrupted. RecvTimeouts is always zero (the MPI layer
	// has no timed receive); it stays because the point record's fault
	// fields include it.
	SendRetries   float64
	SendTimeouts  float64
	RecvTimeouts  float64
	MsgsLost      float64
	MsgsCorrupted float64
	// Crash-recovery accounting, fed by the failure detector and the
	// resilient task runtime (all zero without node crashes): peer death
	// declarations observed by this node, tasks re-executed because their
	// original execution (or its output) was lost with a crashed node,
	// iterations rolled back to the last checkpoint, checkpoints taken,
	// and the sim-time spent re-doing lost progress.
	PeerDeaths      float64
	TasksReexecuted float64
	RollbackIters   float64
	Checkpoints     float64
	RecoverySecs    float64
}

// NewSet returns counters for n cores.
func NewSet(n int) *Set { return &Set{n: n} }

// Reset zeroes every counter.
func (s *Set) Reset() {
	for i := range s.cores {
		s.cores[i] = Core{}
	}
	s.BytesSent = 0
	s.BytesReceived = 0
	s.SendBusySecs = 0
	s.SendRetries = 0
	s.SendTimeouts = 0
	s.RecvTimeouts = 0
	s.MsgsLost = 0
	s.MsgsCorrupted = 0
	s.PeerDeaths = 0
	s.TasksReexecuted = 0
	s.RollbackIters = 0
	s.Checkpoints = 0
	s.RecoverySecs = 0
}

// Core returns a pointer to core i's counters. The pointer stays valid
// only until a higher core is first touched, which may move the array.
func (s *Set) Core(i int) *Core {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("counters: core %d out of range [0,%d)", i, s.n))
	}
	if i >= len(s.cores) {
		if i >= cap(s.cores) {
			c := make([]Core, i+1, min(max(2*cap(s.cores), i+1), s.n))
			copy(c, s.cores)
			s.cores = c
		}
		s.cores = s.cores[:i+1]
	}
	return &s.cores[i]
}

// AddExec accrues one execution slice on core i: busy cycles, the
// subset stalled on memory, and the work retired.
func (s *Set) AddExec(i int, cycles, stallCycles, flops, memBytes float64) {
	c := s.Core(i)
	c.Cycles += cycles
	c.StallCycles += stallCycles
	c.Flops += flops
	c.MemBytes += memBytes
}

// StallFraction returns the node-wide fraction of busy cycles stalled
// on memory, the quantity Figure 10's bottom plot reports. Returns 0
// when no cycles were recorded.
func (s *Set) StallFraction() float64 {
	var cyc, stall float64
	for i := range s.cores {
		cyc += s.cores[i].Cycles
		stall += s.cores[i].StallCycles
	}
	if cyc == 0 {
		return 0
	}
	return stall / cyc
}

// TotalFlops sums retired flops over all cores.
func (s *Set) TotalFlops() float64 {
	var f float64
	for i := range s.cores {
		f += s.cores[i].Flops
	}
	return f
}

// TotalMemBytes sums memory traffic over all cores.
func (s *Set) TotalMemBytes() float64 {
	var b float64
	for i := range s.cores {
		b += s.cores[i].MemBytes
	}
	return b
}

// SendBandwidth returns the paper's §6 "sending network bandwidth": the
// bytes sent divided by the time the sender spent in send operations
// (as measured by the communication library's profiling, not by the
// receiver). Returns 0 when nothing was sent.
func (s *Set) SendBandwidth() float64 {
	if s.SendBusySecs == 0 {
		return 0
	}
	return s.BytesSent / s.SendBusySecs
}
