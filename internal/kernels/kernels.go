// Package kernels defines the compute workloads of the paper's
// benchmarks as roofline slices (flops, bytes, vector class) executed on
// the machine model:
//
//   - PrimeCount — the naive CPU-bound prime counter of §3.2 (no memory
//     traffic at all);
//   - AVX512 — the weak-scaling AVX-512 FMA kernel of §3.3;
//   - STREAM COPY and TRIAD — the memory-bound kernels of §4 (McCalpin);
//   - TriadX — §4.5's modified TRIAD with a tunable "cursor" (repetitions
//     per element) that moves the kernel continuously from memory-bound
//     to CPU-bound;
//   - GEMM tiles and CG blocks — the §6 use-case kernels, parameterised
//     to match MKL-like arithmetic intensity.
package kernels

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PrimeCount returns one iteration of the naive prime-counting
// benchmark: pure integer compute, zero memory traffic ("the algorithm
// uses only few integer variables", §3.2). ops is the number of
// trial-division operations per iteration; the paper's henri runs last
// ≈183 ms regardless of the computing-core count.
func PrimeCount(ops float64) machine.ComputeSpec {
	return machine.ComputeSpec{
		Name:  "prime",
		Flops: ops,
		Class: topology.Scalar,
	}
}

// PrimeCountDefault is calibrated to ≈183 ms per iteration on an henri
// core at its 2.5 GHz sustained turbo (§3.2).
func PrimeCountDefault() machine.ComputeSpec {
	// 183 ms × 2.5 GHz × 4 ops/cycle.
	return PrimeCount(0.183 * 2.5e9 * 4)
}

// AVX512 returns one iteration of §3.3's weak-scaling AVX-512 FMA
// kernel: flops of 512-bit FMA work per core, no memory traffic.
func AVX512(flops float64) machine.ComputeSpec {
	return machine.ComputeSpec{
		Name:  "avx512",
		Flops: flops,
		Class: topology.AVX512,
	}
}

// AVX512Default is calibrated to the paper's Fig 3: ≈135 ms with 4
// computing cores (3.0 GHz) and ≈210 ms with 20 (2.3 GHz licence).
func AVX512Default() machine.ComputeSpec {
	// 135 ms × 3.0 GHz × 32 flops/cycle ≈ 13e9 flops.
	return AVX512(13e9)
}

// StreamCopy returns one iteration of STREAM COPY over `elems` float64
// elements on memory bound to NUMA node `numa`: b[i] ← a[i], 16 bytes
// moved per element, no arithmetic.
func StreamCopy(elems int64, numa int) machine.ComputeSpec {
	return machine.ComputeSpec{
		Name:    "stream-copy",
		Bytes:   float64(16 * elems),
		Class:   topology.AVX2,
		MemNUMA: numa,
	}
}

// StreamTriad returns one iteration of STREAM TRIAD over `elems`
// float64 elements on NUMA node `numa`: c[i] ← a[i] + C·b[i], 24 bytes
// and 2 flops per element (AI = 1/12 flop/B).
func StreamTriad(elems int64, numa int) machine.ComputeSpec {
	return machine.ComputeSpec{
		Name:    "stream-triad",
		Flops:   float64(2 * elems),
		Bytes:   float64(24 * elems),
		Class:   topology.AVX2,
		MemNUMA: numa,
	}
}

// DefaultStreamElems is the per-core STREAM array length: large enough
// to defeat caches, small enough for fast iterations (the paper uses
// the standard STREAM sizing rule).
const DefaultStreamElems = 5 << 20 // 5 Mi elements ≈ 40 MB/array

// TriadX returns one iteration of §4.5's tunable-intensity TRIAD: the
// inner operation is repeated `cursor` times on each element before
// moving to the next, so the slice performs 2·cursor flops per 24 bytes
// moved — arithmetic intensity AI = cursor/12 flop/B. Small cursors are
// memory-bound, large cursors CPU-bound; on henri the roofline ridge
// falls at ≈6 flop/B (§4.5), i.e. cursor ≈ 72.
//
// The paper's loop is scalar compiled code; we model it with the scalar
// flops/cycle throughput.
func TriadX(elems int64, cursor int, numa int) machine.ComputeSpec {
	if cursor < 1 {
		cursor = 1
	}
	return machine.ComputeSpec{
		Name:    "triadx",
		Flops:   float64(2 * int64(cursor) * elems),
		Bytes:   float64(24 * elems),
		Class:   topology.Scalar,
		MemNUMA: numa,
	}
}

// Intensity returns the arithmetic intensity of a slice in flop/B
// (+Inf-free: returns 0 for pure-compute slices with no traffic, which
// callers treat as "beyond the ridge").
func Intensity(s machine.ComputeSpec) float64 {
	if s.Bytes == 0 {
		return 0
	}
	return s.Flops / s.Bytes
}

// GEMMTile returns one b×b×b tile multiply-accumulate of §6's dense
// GEMM: 2b³ flops against 3b² doubles of traffic (AI = b/12 flop/B).
// MKL GEMM runs AVX-512 with near-perfect latency hiding.
func GEMMTile(b int64, numa int) machine.ComputeSpec {
	return machine.ComputeSpec{
		Name:          "gemm-tile",
		Flops:         float64(2 * b * b * b),
		Bytes:         float64(3 * 8 * b * b),
		Class:         topology.AVX512,
		MemNUMA:       numa,
		StallExposure: 1.0,
		BaseStallFrac: 0.15,
	}
}

// CGBlock returns one block of §6's dense conjugate gradient: dominated
// by the dense matrix-vector product, 2 flops per 8-byte matrix element
// (AI = 0.25 flop/B), deeply memory-bound. rows×cols is the block of
// the matrix streamed. Hardware prefetchers overlap part of the wait,
// so the PMU sees only part of it as memory stalls; the exposure and
// the intrinsic floor are calibrated to Fig 10 (≈70% stalls at full
// workers, ≈35–40% with few workers).
func CGBlock(rows, cols int64, numa int) machine.ComputeSpec {
	return machine.ComputeSpec{
		Name:          "cg-block",
		Flops:         float64(2 * rows * cols),
		Bytes:         float64(8 * rows * cols),
		Class:         topology.AVX2,
		MemNUMA:       numa,
		StallExposure: 0.7,
		BaseStallFrac: 0.1,
	}
}

// LoopResult summarises a compute loop ran side by side with (or
// without) communications.
type LoopResult struct {
	Iters int
	Total sim.Duration
	// PerIter is the mean duration of one iteration.
	PerIter sim.Duration
	// BytesPerSec is the per-core memory bandwidth achieved (the metric
	// Fig 4–6 report for STREAM), 0 for pure-compute kernels.
	BytesPerSec float64
}

// LoopUntil executes spec repeatedly on the given core until the
// simulated clock reaches `until` (it finishes the in-flight iteration,
// like a real OpenMP loop would), then reports iteration statistics.
func LoopUntil(p *sim.Proc, n *machine.Node, core int, spec machine.ComputeSpec, until sim.Time) LoopResult {
	return LoopWhile(p, n, core, spec, func() bool { return p.Now() < until })
}

// LoopWhile executes spec repeatedly while cont() returns true,
// checking between iterations (the in-flight iteration always
// completes). Used to run computation "side by side" with a
// communication benchmark of unknown duration (§2.1 step 3). cont runs
// between two slices at one instant (see machine.Node.ExecLoop) and
// must not block.
func LoopWhile(p *sim.Proc, n *machine.Node, core int, spec machine.ComputeSpec, cont func() bool) LoopResult {
	start := p.Now()
	res := LoopResult{Iters: n.ExecLoop(p, core, spec, cont)}
	res.Total = p.Now().Sub(start)
	if res.Iters > 0 {
		res.PerIter = res.Total / sim.Duration(res.Iters)
	}
	if res.Total > 0 {
		res.BytesPerSec = float64(res.Iters) * spec.Bytes / res.Total.Seconds()
	}
	return res
}

// LoopN executes spec `iters` times and reports statistics.
func LoopN(p *sim.Proc, n *machine.Node, core int, spec machine.ComputeSpec, iters int) LoopResult {
	i := 0
	return LoopWhile(p, n, core, spec, func() bool {
		i++
		return i <= iters
	})
}
