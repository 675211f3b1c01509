package bench

import (
	"strings"
	"sync"

	"repro/internal/counters"
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
//   - two nodes: the shape key has no node count, so newWorld pools
//     two-node worlds only, never the collectives' 4- and 8-node ones;
//   - drained: no pending events, no live processes and no compute
//     loop in flight (a world left mid-flight is shut down instead, see
//     releaseWorlds).
//
// Worlds are keyed by the node shape so a point that mutates per-spec
// scalars (frequencies, bandwidths, NIC parameters) still reuses a
// world of the same geometry — Reset rebinds every spec-derived value.
//
// Fabric worlds never reach the arena: a 1,024-host world would pin
// megabytes for the life of the process. fabricWorld instead rewinds a
// point's own drained fabric world for the point's later runs, under
// the same conditions bar the fault schedule (a fresh injector is
// installed after the rewind) plus no network task in flight, and the
// keeper seals each rewound world's accounting first (see seal).

// pooledWorld is one reusable world.
type pooledWorld struct {
	c *machine.Cluster
	w *mpi.World
}

// worldKeeper is the only registry of the worlds one point execution
// builds: ExecutePoint seals the point's record from them (simulated
// seconds, world count, fault totals), and releaseWorlds releases them
// together once it is sealed. It holds the poolable worlds, and every
// world, pooled or not. Point execution is single-threaded, so the
// keeper needs no lock.
type worldKeeper struct {
	worlds []pooledWorld
	built  []builtWorld
	// family is the sweep family of the point (see Family).
	family string
}

// keepers recycles the keepers of point executions, which
// releaseWorlds leaves empty: a point can build thousands of worlds,
// and a fresh keeper would grow its lists again for every point.
var keepers = sync.Pool{New: func() any { return new(worldKeeper) }}

// builtWorld is one world a point execution built, with its work
// counts when the point took it over. Setup solves differ between a
// fresh and a rewound world (Reset re-applies only the capacities the
// previous point moved), so counting from the hand-over keeps the
// counts independent of which worlds the arena happened to hold.
//
// A world the point rewinds for a later run of its own is sealed first
// (see seal): the entry keeps what the world did until then and drops
// the cluster, and the rewound world gets an entry of its own. So every
// cluster is live in exactly one entry, the last one built on it.
type builtWorld struct {
	c      *machine.Cluster
	base   Work
	sealed worldAccount
}

// worldAccount is what one world contributes to its point's record and
// to DoneByFamily: the simulated seconds its kernel covered, its nodes'
// fault and recovery totals, and its work since the hand-over.
type worldAccount struct {
	simSeconds float64
	faults     counters.Faults
	work       Work
}

// account returns the world's accounting: the one sealed at its rewind,
// or the live one of a world the point still holds.
func (bw *builtWorld) account() worldAccount {
	if bw.c == nil {
		return bw.sealed
	}
	a := worldAccount{simSeconds: sim.Duration(bw.c.K.Now()).Seconds(), work: workOf(bw.c).Sub(bw.base)}
	for _, n := range bw.c.Nodes {
		a.faults.Add(n.Counters.Faults)
	}
	return a
}

// seal freezes the accounting of c's live entry before the point
// resets c for another run, which zeroes everything account reads.
func (keep *worldKeeper) seal(c *machine.Cluster) {
	for i := len(keep.built) - 1; i >= 0; i-- {
		if bw := &keep.built[i]; bw.c == c {
			bw.sealed, bw.c = bw.account(), nil
			return
		}
	}
	panic("bench: sealing a world the point did not build")
}

// Work counts the simulation work of worlds: fluid re-solves, fluid
// mutations that skipped their re-solve, fluid starts and removals that
// reused a recorded solve, kernel events dispatched and process resumes
// (coroutine switches into a process).
type Work struct {
	Solves, Skips, Reuses, Events, Resumes uint64
}

// workOf reads the counts of c's fluid model and kernel. Resetting a
// world zeroes them, so a point reads them only after taking the world
// over, never across a Reset.
func workOf(c *machine.Cluster) Work {
	return Work{Solves: c.Fluid.Solves(), Skips: c.Fluid.Skips(), Reuses: c.Fluid.Reuses(), Events: c.K.Steps(), Resumes: c.K.Resumes()}
}

// work totals, by sweep family, the counts of every world a point
// execution released (see DoneByFamily).
var work = struct {
	mu       sync.Mutex
	byFamily WorkByFamily
}{byFamily: WorkByFamily{}}

// Family returns the sweep family of a point: the first segment of its
// key ("contention", "fig10", "solo", ...).
func Family(pointKey string) string {
	fam, _, _ := strings.Cut(pointKey, "/")
	return fam
}

// WorkByFamily is simulation work split by sweep family.
type WorkByFamily map[string]Work

// DoneByFamily returns the simulation work the worlds built inside
// point executions have done, process-wide, by the family of the point
// that built them, counting each world once when its point releases it.
// A campaign's work is the difference of two reads around it, exact at
// any worker count while nothing else executes points.
func DoneByFamily() WorkByFamily {
	work.mu.Lock()
	defer work.mu.Unlock()
	out := make(WorkByFamily, len(work.byFamily))
	for fam, w := range work.byFamily {
		out[fam] = w
	}
	return out
}

// Add returns w plus b.
func (w Work) Add(b Work) Work {
	return Work{Solves: w.Solves + b.Solves, Skips: w.Skips + b.Skips, Reuses: w.Reuses + b.Reuses, Events: w.Events + b.Events, Resumes: w.Resumes + b.Resumes}
}

// Sub returns the work done from b to w.
func (w Work) Sub(b Work) Work {
	return Work{Solves: w.Solves - b.Solves, Skips: w.Skips - b.Skips, Reuses: w.Reuses - b.Reuses, Events: w.Events - b.Events, Resumes: w.Resumes - b.Resumes}
}

// Sub returns the work done from b to w, family by family, leaving out
// the families that did none.
func (w WorkByFamily) Sub(b WorkByFamily) WorkByFamily {
	out := WorkByFamily{}
	for fam, x := range w {
		if d := x.Sub(b[fam]); d != (Work{}) {
			out[fam] = d
		}
	}
	return out
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
// are shut down instead of pooled. Compute loops, MPI ranks and task
// runtime workers run no process, so a world parks only the coroutines
// of its drivers (the runtimes' main threads, the collectives): after
// one golden henri campaign the process holds 18 goroutines, where
// process-run runtime workers left 576.
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
		pw.c.Fluid.Retire()
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
// that are not drained (a crash schedule froze processes or held
// compute loops on a dead node, or a panicked run left them
// mid-flight): Shutdown unwinds their blocked processes, which would
// run the defers of their bodies, but no process body defers anything,
// so the unwind changes no world state. Continuations are no
// processes, so Shutdown does not reach them: a compute loop left
// mid-slice keeps its core active and its stream counted, one held by a
// dead node keeps its wakeup queued, and a task runtime's communication
// thread and workers keep their cores active and the idle workers their
// poll flows, in a world that is never parked or run again. All of it
// stays inside its own world, and the point's record is sealed from its
// worlds before this runs, so abandoning them is invisible in results.
//
// Each world's work since the hand-over is folded into DoneByFamily
// here, under the point's family, before its kernel is shut down or the
// world is parked: a pooled world zeroes its counts when the next point
// resets it.
func releaseWorlds(keep *worldKeeper) {
	// Decide what to park first: Shutdown ends blocked processes, after
	// which an abandoned world would read as drained. Then shut down
	// before parking anything: a parked world may be taken by another
	// worker at once, after which its kernel is not ours to read.
	n := 0
	for _, pw := range keep.worlds {
		if drained(pw.c) {
			keep.worlds[n] = pw
			n++
		}
	}
	clear(keep.worlds[n:])
	keep.worlds = keep.worlds[:n]
	var done Work
	for i := range keep.built {
		bw := &keep.built[i]
		done = done.Add(bw.account().work)
		if bw.c != nil && !keep.pools(bw.c) {
			bw.c.K.Shutdown()
			bw.c.Fluid.Retire()
		}
		*bw = builtWorld{}
	}
	keep.built = keep.built[:0]
	work.mu.Lock()
	work.byFamily[keep.family] = work.byFamily[keep.family].Add(done)
	work.mu.Unlock()
	for i, pw := range keep.worlds {
		keep.worlds[i] = pooledWorld{}
		arena.put(pw)
	}
	keep.worlds = keep.worlds[:0]
}

// drained reports whether a world has nothing left to run: no pending
// events, no live processes, no compute loop in flight and no active
// flow, Cluster.Reset's precondition. A loop held by a down node has
// neither an event nor a process; parked, it would wake into the next
// simulation on the world at its first recovery. The idle workers of a
// task runtime that was started and never shut down have neither
// either, but each keeps its poll flow.
func drained(c *machine.Cluster) bool {
	return c.K.Idle() && c.K.LiveProcs() == 0 && c.Loops() == 0 && c.Fluid.FlowCount() == 0
}

// pools reports whether c is one of the keeper's poolable worlds.
func (keep *worldKeeper) pools(c *machine.Cluster) bool {
	for _, pw := range keep.worlds {
		if pw.c == c {
			return true
		}
	}
	return false
}
