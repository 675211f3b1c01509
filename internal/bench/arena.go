package bench

import (
	"sync"

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
// reads) is sealed: the poolable worlds, and the kernel of every world,
// pooled or not. Point execution is single-threaded, so the keeper needs
// no lock.
type worldKeeper struct {
	worlds  []pooledWorld
	kernels []*sim.Kernel
}

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
	for i, k := range keep.kernels {
		keep.kernels[i] = nil
		if !keep.pools(k) {
			k.Shutdown()
		}
	}
	keep.kernels = keep.kernels[:0]
	for i, pw := range keep.worlds {
		keep.worlds[i] = pooledWorld{}
		arena.put(pw)
	}
	keep.worlds = keep.worlds[:0]
}

// drained reports whether a kernel has nothing left to run: no pending
// events and no live processes.
func drained(k *sim.Kernel) bool { return k.Idle() && k.LiveProcs() == 0 }

// pools reports whether k belongs to one of the keeper's poolable worlds.
func (keep *worldKeeper) pools(k *sim.Kernel) bool {
	for _, pw := range keep.worlds {
		if pw.c.K == k {
			return true
		}
	}
	return false
}
