// Package bench implements the paper's benchmarking protocol (§2.1) and
// one driver per figure/table of the evaluation. Each driver builds a
// fresh simulated cluster, runs the three protocol steps —
//
//	(1) computation without communication,
//	(2) communication without computation,
//	(3) computation with side-by-side communication,
//
// — and reports medians with first/last deciles, exactly the statistics
// the paper plots.
package bench

import (
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Env is the shared experiment environment.
type Env struct {
	// Spec selects the cluster model; drivers never mutate it (they copy
	// before applying per-experiment settings).
	Spec *topology.NodeSpec
	// Seed makes every run reproducible; run r of an experiment uses
	// Seed+r.
	Seed int64
	// Runs is how many times each configuration is repeated to build the
	// decile bands.
	Runs int
	// Meter, when non-nil, absorbs the accounting of every point record
	// the experiment's sweeps return (world count, total simulated
	// seconds, fault totals). Nil disables accounting.
	Meter *Meter
	// Faults, when non-nil, is installed into every world the drivers
	// build (newWorld, fabricWorld, and the worlds tuning.WorkerSweep
	// gets from World): each run gets a fresh fault.Injector seeded from
	// the run's world seed, so injection composes with the usual
	// seed+run reproducibility. Nil runs healthy worlds with an
	// unchanged event sequence.
	Faults *fault.Schedule
	// Sched, when non-nil, executes compiled sweep points (see sweep.go)
	// on a campaign-wide pool, possibly replaying them from a persistent
	// cache. Nil runs sweep points inline, serially, with identical
	// output.
	Sched PointRunner
	// NoPool disables world recycling for points run under this
	// environment: every world is built from scratch, with no arena hit
	// in newWorld and no rewind of a point's fabric world in fabricWorld.
	// The differential tests use it to check that recycled and fresh
	// execution produce byte-identical records; production campaigns
	// leave it false.
	NoPool bool

	// keeper, set by ExecutePoint on the point's isolated clone,
	// collects the worlds the point builds so they can be recycled once
	// its record is sealed. Nil outside point execution (no pooling).
	keeper *worldKeeper
}

// Isolated returns a copy of the environment that shares no mutable
// state with the receiver: the spec is deep-copied and the copy gets
// its own fresh Meter. Concurrent experiments must each run against
// their own isolated Env.
func (e Env) Isolated() Env {
	e.Spec = e.Spec.Clone()
	e.Meter = &Meter{}
	// World recycling is scoped to one point execution; an isolated
	// clone starts outside any such scope (ExecutePoint installs its
	// own keeper explicitly).
	e.keeper = nil
	return e
}

// track registers a freshly built world with the point's keeper, the
// only registry of the worlds a point builds: ExecutePoint seals the
// point's record from it, and releaseWorlds counts the simulation work
// the world does from here on and shuts its kernel's process coroutines
// down once the point is done with it. Outside a point the world is not
// accounted; a campaign experiment (one with a scheduler) must build
// every world inside a point, or the point cache could not replay it,
// so there track panics.
func (e Env) track(c *machine.Cluster) {
	if e.keeper == nil {
		if e.Sched != nil {
			panic("bench: a campaign experiment built a world outside a sweep point (compile it into points, see RunPointsAs)")
		}
		return
	}
	e.keeper.built = append(e.keeper.built, builtWorld{c: c, base: workOf(c)})
}

// DefaultEnv returns the environment used by the harness: the henri
// cluster, 3 repetitions.
func DefaultEnv() Env {
	return Env{Spec: topology.Henri(), Seed: 1, Runs: 3}
}

func (e Env) runs() int {
	if e.Runs <= 0 {
		return 1
	}
	return e.Runs
}

// CommConfig describes the communication side of an experiment.
type CommConfig struct {
	// CommCore is the core of the communication thread on both nodes;
	// -1 keeps each rank's default (far from the NIC).
	CommCore int
	// BufNUMA places the ping-pong buffers; -1 means the NIC NUMA node.
	BufNUMA int
	// Size is the message size; Iters/Warmup the ping-pong counts.
	Size          int64
	Iters, Warmup int
}

// LatencyConfig returns the paper's latency benchmark: 4-byte messages.
func LatencyConfig() CommConfig {
	return CommConfig{CommCore: -1, BufNUMA: -1, Size: 4, Iters: 30, Warmup: 5}
}

// BandwidthConfig returns the paper's bandwidth benchmark: 64 MB
// messages, asymptotic regime.
func BandwidthConfig() CommConfig {
	return CommConfig{CommCore: -1, BufNUMA: -1, Size: 64 << 20, Iters: 6, Warmup: 2}
}

// ComputeConfig describes the computation side of an experiment.
type ComputeConfig struct {
	// Slice is one iteration of the kernel on one core (MemNUMA set by
	// the driver for placement studies).
	Slice machine.ComputeSpec
	// Cores is the number of computing cores per node; they are bound to
	// the lowest-numbered cores, skipping the communication core (the
	// paper's "logical core numbering order").
	Cores int
	// MinIters is the minimum number of iterations per core in the
	// compute-alone step.
	MinIters int
}

// InterferenceResult aggregates the three protocol steps for one
// configuration.
type InterferenceResult struct {
	// ComputeAlone / ComputeTogether summarise the per-core compute
	// metric (bytes/s for memory kernels, iteration seconds recorded in
	// ComputeSecsAlone/Together for CPU kernels) across cores and runs.
	ComputeAlone    stats.Summary // per-core bytes/s
	ComputeTogether stats.Summary
	// ComputeSecsAlone / Together summarise seconds per iteration.
	ComputeSecsAlone    stats.Summary
	ComputeSecsTogether stats.Summary
	// CommAlone / CommTogether summarise the half-round-trip latency in
	// seconds across iterations and runs.
	CommAlone    stats.Summary
	CommTogether stats.Summary
	// Size echoes the message size, for bandwidth conversion.
	Size int64
}

// BandwidthAlone returns the comm-alone NetPIPE bandwidth in bytes/s.
func (r InterferenceResult) BandwidthAlone() float64 {
	if r.CommAlone.Median == 0 {
		return 0
	}
	return float64(r.Size) / r.CommAlone.Median
}

// BandwidthTogether returns the side-by-side bandwidth in bytes/s.
func (r InterferenceResult) BandwidthTogether() float64 {
	if r.CommTogether.Median == 0 {
		return 0
	}
	return float64(r.Size) / r.CommTogether.Median
}

// computeCores returns the first n cores in logical order, skipping the
// communication core.
func computeCores(spec *topology.NodeSpec, n, commCore int) []int {
	var cores []int
	for c := 0; c < spec.Cores() && len(cores) < n; c++ {
		if c == commCore {
			continue
		}
		cores = append(cores, c)
	}
	return cores
}

// newWorld builds the world of one run: a cluster of `nodes` nodes on
// the paper's network (net.New: one wire per node pair), adopted by the
// point (see adopt), and the MPI world bound to it. It is the
// constructor of every MPI world the drivers run; the fabric-* family's
// worlds come from fabricWorld.
func newWorld(env Env, nodes int, seed int64) (*machine.Cluster, *mpi.World) {
	// Healthy two-node worlds built inside a point execution are
	// recycled through the arena (whose shape key has no node count): a
	// pooled world is rewound to exactly the state a fresh build would
	// have, so the event sequence — and therefore every golden — is
	// unchanged.
	poolable := nodes == 2 && env.keeper != nil && !env.NoPool && env.Faults == nil
	if poolable {
		if pw, ok := arena.get(machine.ShapeOf(env.Spec)); ok {
			pw.c.Reset(env.Spec, seed)
			pw.w.Network().Reset()
			pw.w.Reset()
			env.adopt(pw.c, pw.w.Network(), seed)
			env.keeper.worlds = append(env.keeper.worlds, pw)
			return pw.c, pw.w
		}
	}
	c := machine.NewCluster(env.Spec, nodes, seed)
	nw := net.New(c)
	env.adopt(c, nw, seed)
	w := mpi.NewWorld(c, nw)
	if poolable {
		env.keeper.worlds = append(env.keeper.worlds, pooledWorld{c: c, w: w})
	}
	// Note: node-crash schedules additionally need the heartbeat failure
	// detector, but arming it here would keep every kernel alive forever
	// (the monitors tick until stopped, so Run() would never drain). The
	// crash-aware drivers arm it themselves and Stop() it when done.
	return c, w
}

// World returns the two-node world of one run at seed, built as every
// driver builds its worlds (see newWorld): it carries the environment's
// fault schedule and is registered with the point that builds it.
// tuning.Options.World takes it.
func (e Env) World(seed int64) (*machine.Cluster, *mpi.World) {
	return newWorld(e, 2, seed)
}

// adopt is the last step of every world build, fresh or rewound: it
// installs a fresh injector seeded from the run's world seed when the
// environment carries a fault schedule, then registers the world with
// the point's keeper. It runs before an MPI world binds to nw, which
// reads the injector, and it is tracked once built, so the build's
// setup solves are not the point's (see builtWorld).
func (e Env) adopt(c *machine.Cluster, nw *net.Network, seed int64) {
	if e.Faults != nil {
		nw.InstallFaults(fault.NewInjector(c, e.Faults, seed))
	}
	e.track(c)
}

// applyComm binds the communication threads and builds the ping-pong.
func applyComm(w *mpi.World, cc CommConfig) *mpi.PingPong {
	pp := &mpi.PingPong{Size: cc.Size, Iters: cc.Iters, Warmup: cc.Warmup}
	for i := 0; i < 2; i++ {
		r := w.Rank(i)
		if cc.CommCore >= 0 {
			r.SetCommCore(cc.CommCore)
		}
		numa := r.Node.Spec.NIC.NUMA
		if cc.BufNUMA >= 0 {
			numa = cc.BufNUMA
		}
		buf := r.Node.Alloc(max(cc.Size, 1), numa)
		if i == 0 {
			pp.InitBuf = buf
		} else {
			pp.RespBuf = buf
		}
	}
	return pp
}

// Interference runs the full §2.1 protocol for one configuration: the
// three steps below, composed inline. Sweeps instead share the "alone"
// baselines: comp alone between a cell's halves (cellResults), comm
// alone between cells (soloCommPoint). Interference is what such a
// sweep must reproduce bit for bit.
func Interference(env Env, comm CommConfig, comp ComputeConfig) InterferenceResult {
	res := InterferenceResult{Size: comm.Size}
	res.ComputeAlone, res.ComputeSecsAlone = compAlone(env, comp, comm.CommCore)
	res.CommAlone = commAlone(env, comm)
	if comp.Cores > 0 {
		res.ComputeTogether, res.ComputeSecsTogether, res.CommTogether = together(env, comm, comp)
	}
	return res
}

// cellResults runs the steps a sweep cell owns: comp alone once, then
// comp beside each of comms, which must share one communication core.
// The results leave CommAlone for the sweep to fill from the shared
// baseline point (soloCommPoint).
func cellResults(env Env, comp ComputeConfig, comms ...CommConfig) []InterferenceResult {
	bw, secs := compAlone(env, comp, comms[0].CommCore)
	out := make([]InterferenceResult, len(comms))
	for i, comm := range comms {
		r := &out[i]
		r.Size = comm.Size
		r.ComputeAlone, r.ComputeSecsAlone = bw, secs
		r.ComputeTogether, r.ComputeSecsTogether, r.CommTogether = together(env, comm, comp)
	}
	return out
}

// The protocol steps below each loop over the runs in order (run r on
// seed Seed+r, one fresh world per run; compAlone may stop after run 0)
// and summarise their samples. Their accumulators are preallocated to
// their exact final sizes: one compute sample per (run, node-0 core)
// and one latency sample per (run, ping-pong iteration). These appends
// are the hottest measurement path of every sweep point.

// compAlone is step 1, computation without communication: it returns
// the per-core bytes/s and seconds per iteration of comp's cores, which
// skip commCore (-1: each rank's default communication core). It depends
// on the communication side only through that core. Computation alone
// never draws, so a healthy run 0 is every run: its samples are
// repeated for the others instead of simulating identical worlds.
func compAlone(env Env, comp ComputeConfig, commCore int) (bytesPerSec, secs stats.Summary) {
	bw := make([]float64, 0, env.runs()*comp.Cores)
	ss := make([]float64, 0, env.runs()*comp.Cores)
	iters := comp.MinIters
	if iters <= 0 {
		iters = 3
	}
	for run := 0; comp.Cores > 0 && run < env.runs(); run++ {
		c, w := newWorld(env, 2, env.Seed+int64(run))
		core := commCore
		if core < 0 {
			core = w.Rank(0).CommCore
		}
		cores := computeCores(env.Spec, comp.Cores, core)
		left := make([]countdown, len(c.Nodes)*len(cores))
		for k := range left {
			left[k] = countdown(iters)
		}
		startLoops(c, cores, comp.Slice, func(k int) func() bool { return left[k].next }, func(end machine.LoopEnd) {
			if end.Node.ID == 0 {
				r := kernels.NewLoopResult(end.Iters, end.Total, end.Spec.Bytes)
				bw = append(bw, r.BytesPerSec)
				ss = append(ss, r.PerIter.Seconds())
			}
		})
		c.K.Run()
		if run == 0 && compAloneOnce && seedFree(env, c.K) {
			n := len(bw)
			for r := 1; r < env.runs(); r++ {
				bw = append(bw, bw[:n]...)
				ss = append(ss, ss[:n]...)
			}
			break
		}
	}
	return stats.SummarizeInPlace(bw), stats.SummarizeInPlace(ss)
}

// compAloneOnce lets compAlone stand its first run in for the others
// when that run never read its seed (see seedFree). Tests turn it off
// to force every run to execute.
var compAloneOnce = true

// seedFree reports whether a run that ended on kernel k followed a
// course its seed did not choose, so a run at any other seed would
// repeat it bit for bit: no fault injector (it draws from the run's
// seed) and no draw from the kernel's random source.
func seedFree(env Env, k *sim.Kernel) bool {
	return env.Faults == nil && !k.Drew()
}

// startLoops starts a loop of slice on each of cores of every node of
// c, node by node, each from its own event at the current instant: the
// slot a process spawned to run it would take. One closure starts them
// all, in turn; loop k runs while next(k)'s condition holds, and done
// gets each loop's end.
func startLoops(c *machine.Cluster, cores []int, slice machine.ComputeSpec, next func(k int) func() bool, done func(machine.LoopEnd)) {
	k := 0
	start := func() {
		node, core := c.Nodes[k/len(cores)], cores[k%len(cores)]
		cond := next(k)
		k++
		node.StartLoop(core, slice, cond, done)
	}
	for range len(c.Nodes) * len(cores) {
		c.K.At(c.K.Now(), start)
	}
}

// countdown is the condition of a loop of a fixed number of slices: its
// next allows as many as its initial value.
type countdown int

func (c *countdown) next() bool {
	*c--
	return *c >= 0
}

// commAlone is step 2, communication without computation: the
// half-round-trip latency in seconds across iterations and runs. It
// depends on nothing but comm and the environment.
func commAlone(env Env, comm CommConfig) stats.Summary {
	lat := make([]float64, 0, env.runs()*comm.Iters)
	for run := 0; run < env.runs(); run++ {
		c, w := newWorld(env, 2, env.Seed+int64(run))
		lat = append(lat, runPingPong(c, w, applyComm(w, comm), 0, nil)...)
	}
	return stats.SummarizeInPlace(lat)
}

// together is step 3, computation with side-by-side communication: the
// per-core bytes/s and seconds per iteration of the compute cores, and
// the half-round-trip latency of the ping-pong beside them.
func together(env Env, comm CommConfig, comp ComputeConfig) (bytesPerSec, secs, latency stats.Summary) {
	bw := make([]float64, 0, env.runs()*comp.Cores)
	ss := make([]float64, 0, env.runs()*comp.Cores)
	lat := make([]float64, 0, env.runs()*comm.Iters)
	record := func(r kernels.LoopResult) {
		bw = append(bw, r.BytesPerSec)
		ss = append(ss, r.PerIter.Seconds())
	}
	for run := 0; run < env.runs(); run++ {
		c, w := newWorld(env, 2, env.Seed+int64(run))
		pp := applyComm(w, comm)
		stop := computeBeside(c, computeCores(env.Spec, comp.Cores, w.Rank(0).CommCore), comp.Slice, record)
		// Let computation reach steady state before measuring.
		lat = append(lat, runPingPong(c, w, pp, sim.Duration(2*sim.Millisecond), stop)...)
	}
	return stats.SummarizeInPlace(bw), stats.SummarizeInPlace(ss), stats.SummarizeInPlace(lat)
}

// runPingPong runs pp between the two ranks of w to completion
// (mpi.PingPong.Start): the initiator on rank 0, which first waits warm
// when it is positive, then the responder on rank 1. done, when
// non-nil, runs right after the initiator's last iteration. It returns
// the initiator's half-round-trip latencies in seconds.
func runPingPong(c *machine.Cluster, w *mpi.World, pp *mpi.PingPong, warm sim.Duration, done func()) []float64 {
	var lats []sim.Duration
	pp.Start(w, warm, func(l []sim.Duration) {
		lats = l
		if done != nil {
			done()
		}
	})
	c.K.Run()
	secs := make([]float64, len(lats))
	for i, l := range lats {
		secs[i] = l.Seconds()
	}
	return secs
}

// computeBeside starts a loop of slice on each of cores of every node
// of c (see startLoops) that runs beside a communication until the
// returned stop is called: each loop then ends at its first slice
// boundary, so it always finishes the slice in flight. record, when
// non-nil, gets the result of each node-0 loop that completed an
// iteration.
func computeBeside(c *machine.Cluster, cores []int, slice machine.ComputeSpec, record func(kernels.LoopResult)) (stop func()) {
	stopped := false
	computing := func() bool { return !stopped } // the loops' condition, built once per world
	var done func(machine.LoopEnd)
	if record != nil {
		done = func(end machine.LoopEnd) {
			if end.Node.ID == 0 && end.Iters > 0 {
				record(kernels.NewLoopResult(end.Iters, end.Total, end.Spec.Bytes))
			}
		}
	}
	startLoops(c, cores, slice, func(int) func() bool { return computing }, done)
	return func() { stopped = true }
}
