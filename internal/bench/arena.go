package bench

import (
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The world arena recycles fully-drained simulated worlds (cluster +
// network + MPI communicator) across sweep points. Building a world is
// the dominant allocation cost of a point — kernel, fluid model,
// per-node resources, frequency models, ranks — and every point of a
// campaign builds several. Since almost all points share one node
// shape, a drained world can be rewound (Cluster.Reset, Network.Reset,
// World.Reset) and reused with a byte-identical event sequence, so the
// steady-state campaign allocates no worlds at all.
//
// Pooling is restricted to worlds that are provably clean:
//
//   - healthy (no fault injector): fault schedules leave retransmission
//     timers, watchers and per-run injector state behind;
//   - legacy two-node network (no fabric): fabric experiments size their
//     own clusters and bypass newWorld anyway;
//   - drained kernel: no pending events and no live processes (a world
//     left mid-flight is shut down instead, see releaseWorlds).
//
// Worlds are keyed by the node shape so a point that mutates per-spec
// scalars (frequencies, bandwidths, NIC parameters) still reuses a
// world of the same geometry — Reset rebinds every spec-derived value.

// pooledWorld is one reusable world.
type pooledWorld struct {
	c *machine.Cluster
	w *mpi.World
}

// worldKeeper collects the worlds one point execution builds, so they
// can be released together once the point's record (including its meter
// reads) is sealed: the poolable worlds, and every world, pooled or not.
// Point execution is single-threaded, so the keeper needs no lock.
type worldKeeper struct {
	worlds []pooledWorld
	built  []builtWorld
}

// builtWorld is one world a point execution built, with its fluid solve
// count when the point took it over. Setup solves differ between a fresh
// and a rewound world (Reset re-applies only the capacities the previous
// point moved), so counting from the hand-over keeps Solves independent
// of which worlds the arena happened to hold.
type builtWorld struct {
	c      *machine.Cluster
	solves uint64
}

// solves totals the fluid re-solves of every world a point execution
// released (see Solves).
var solves atomic.Uint64

// Solves returns how many fluid re-solves the worlds built inside point
// executions have run, process-wide, counting each world once when its
// point releases it. A campaign's solve count is the difference of two
// reads around it, exact at any worker count while nothing else executes
// points.
func Solves() uint64 { return solves.Load() }

// worldArena is the global shape-keyed freelist.
type worldArena struct {
	mu    sync.Mutex
	free  map[machine.ShapeKey][]pooledWorld
	count int
}

// arenaCap bounds the total number of parked worlds. Each world keeps
// its parked process coroutines (each a goroutine) alive, so the bound
// also bounds the goroutine high-water mark; beyond it released worlds
// are shut down instead of pooled.
const arenaCap = 96

var arena = worldArena{free: map[machine.ShapeKey][]pooledWorld{}}

// get pops a parked world of the given shape, or returns false.
func (a *worldArena) get(shape machine.ShapeKey) (pooledWorld, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.free[shape]
	n := len(q)
	if n == 0 {
		return pooledWorld{}, false
	}
	pw := q[n-1]
	q[n-1] = pooledWorld{}
	a.free[shape] = q[:n-1]
	a.count--
	return pw, true
}

// put parks a drained world for reuse, or shuts it down when the arena
// is full (unparking its pooled coroutines so they exit).
func (a *worldArena) put(pw pooledWorld) {
	a.mu.Lock()
	if a.count >= arenaCap {
		a.mu.Unlock()
		pw.c.K.Shutdown()
		return
	}
	shape := pw.c.Shape()
	a.free[shape] = append(a.free[shape], pw)
	a.count++
	a.mu.Unlock()
}

// releaseWorlds returns every world a point execution built to the
// arena, keeping only those that are provably drained and were eligible
// for pooling in the first place (newWorld only records such worlds),
// and shuts down the kernel of every other world, so its process
// coroutines exit instead of outliving the point. That includes worlds
// that are not drained (a crash schedule froze processes on a dead node,
// or a panicked run left them mid-flight): Shutdown unwinds their
// blocked processes, which runs the defers of their bodies. The only
// such defer is the world's fault-injector unwatch; a compute slice cut
// short leaves its core active and its stream counted, in a world that
// is never parked. Both stay inside their own world, and the point's
// record, meter reads included, is sealed before this runs, so
// unwinding them is invisible in results.
//
// Each world's fluid solves since the hand-over are folded into Solves
// here, before its kernel is shut down or the world is parked: a pooled
// world zeroes its count when the next point resets it.
func releaseWorlds(keep *worldKeeper) {
	// Decide what to park first: Shutdown ends blocked processes, after
	// which an abandoned world would read as drained. Then shut down
	// before parking anything: a parked world may be taken by another
	// worker at once, after which its kernel is not ours to read.
	n := 0
	for _, pw := range keep.worlds {
		if drained(pw.c.K) {
			keep.worlds[n] = pw
			n++
		}
	}
	clear(keep.worlds[n:])
	keep.worlds = keep.worlds[:n]
	var folded uint64
	for i, bw := range keep.built {
		keep.built[i] = builtWorld{}
		folded += bw.c.Fluid.Solves() - bw.solves
		if !keep.pools(bw.c) {
			bw.c.K.Shutdown()
		}
	}
	keep.built = keep.built[:0]
	solves.Add(folded)
	for i, pw := range keep.worlds {
		keep.worlds[i] = pooledWorld{}
		arena.put(pw)
	}
	keep.worlds = keep.worlds[:0]
}

// drained reports whether a kernel has nothing left to run: no pending
// events and no live processes.
func drained(k *sim.Kernel) bool { return k.Idle() && k.LiveProcs() == 0 }

// pools reports whether c is one of the keeper's poolable worlds.
func (keep *worldKeeper) pools(c *machine.Cluster) bool {
	for _, pw := range keep.worlds {
		if pw.c == c {
			return true
		}
	}
	return false
}
