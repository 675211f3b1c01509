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
	// Meter, when non-nil, is notified of every simulated world the
	// drivers build, for per-experiment accounting (world count, total
	// simulated seconds). Nil disables accounting.
	Meter *Meter
	// Faults, when non-nil, is installed into every world the drivers
	// build: each run gets a fresh fault.Injector seeded from the run's
	// world seed, so injection composes with the usual seed+run
	// reproducibility. Nil runs healthy worlds with an unchanged event
	// sequence.
	Faults *fault.Schedule
	// Sched, when non-nil, executes compiled sweep points (see sweep.go)
	// on a campaign-wide pool, possibly replaying them from a persistent
	// cache. Nil runs sweep points inline, serially, with identical
	// output.
	Sched PointRunner
	// Fabric, when non-nil, replaces the legacy two-node full mesh with
	// a routed fabric (internal/topology) in every world the drivers
	// build. The paper's experiments are two-ranked, so the fabric must
	// have exactly two hosts (the "two-node" preset degenerates
	// byte-identically to the legacy network); the fabric-* experiment
	// family sizes its own clusters and ignores this field.
	Fabric *topology.FabricSpec
	// NoPool disables world recycling for points run under this
	// environment: every newWorld builds from scratch even when the
	// arena holds a compatible drained world. The differential tests use
	// it to check that pooled and fresh execution produce byte-identical
	// records; production campaigns leave it false.
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
	if e.Fabric != nil {
		fab := *e.Fabric
		e.Fabric = &fab
	}
	// World recycling is scoped to one point execution; an isolated
	// clone starts outside any such scope (ExecutePoint installs its
	// own keeper explicitly).
	e.keeper = nil
	return e
}

// track registers a freshly built world's kernel with the meter and,
// inside a point execution, the world with the point's keeper, which
// counts the fluid solves it runs from here on and shuts its kernel's
// process coroutines down once the point is done with it.
func (e Env) track(c *machine.Cluster) {
	if e.Meter != nil {
		e.Meter.track(c.K)
	}
	if e.keeper != nil {
		e.keeper.built = append(e.keeper.built, builtWorld{c: c, solves: c.Fluid.Solves()})
	}
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

// newWorld builds a fresh cluster + network + MPI world for one run and
// registers it with the environment's meter. When the environment
// carries a fault schedule, a fresh injector (seeded from this world's
// seed) is installed on the network before the MPI world binds to it.
func newWorld(env Env, seed int64) (*machine.Cluster, *mpi.World) {
	// Healthy legacy-network worlds built inside a point execution are
	// recycled through the arena: a pooled world is rewound to exactly
	// the state a fresh build would have, so the event sequence — and
	// therefore every golden — is unchanged.
	poolable := env.keeper != nil && !env.NoPool && env.Faults == nil && env.Fabric == nil
	if poolable {
		if pw, ok := arena.get(machine.ShapeOf(env.Spec)); ok {
			pw.c.Reset(env.Spec, seed)
			pw.w.Network().Reset()
			pw.w.Reset()
			env.track(pw.c)
			if env.Meter != nil {
				for _, n := range pw.c.Nodes {
					env.Meter.TrackCounters(n.Counters)
				}
			}
			env.keeper.worlds = append(env.keeper.worlds, pw)
			return pw.c, pw.w
		}
	}
	c := machine.NewCluster(env.Spec, 2, seed)
	var nw *net.Network
	if env.Fabric != nil {
		// NewFabric rejects a fabric whose host count differs from the
		// cluster's two ranks.
		nw = net.NewFabric(c, env.Fabric, false)
	} else {
		nw = net.New(c)
	}
	if env.Faults != nil {
		nw.InstallFaults(fault.NewInjector(c, env.Faults, seed))
	}
	if env.Meter != nil {
		for _, n := range c.Nodes {
			env.Meter.TrackCounters(n.Counters)
		}
	}
	w := mpi.NewWorld(c, nw)
	// Tracked once built, as a rewound world is, so its setup solves are
	// not the point's (see builtWorld).
	env.track(c)
	if poolable {
		env.keeper.worlds = append(env.keeper.worlds, pooledWorld{c: c, w: w})
	}
	// Note: node-crash schedules additionally need the heartbeat failure
	// detector, but arming it here would keep every kernel alive forever
	// (the monitors tick until stopped, so Run() would never drain). The
	// crash-aware drivers arm it themselves and Stop() it when done.
	return c, w
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
		buf := r.Node.Alloc(maxInt64(cc.Size, 1), numa)
		if i == 0 {
			pp.InitBuf = buf
		} else {
			pp.RespBuf = buf
		}
	}
	return pp
}

// Interference runs the full §2.1 protocol for one configuration.
func Interference(env Env, comm CommConfig, comp ComputeConfig) InterferenceResult {
	res := InterferenceResult{Size: comm.Size}
	// Preallocate the accumulators to their exact final sizes: one
	// compute sample per (run, node-0 core) and one latency sample per
	// (run, ping-pong iteration). These appends are the hottest
	// measurement path of every sweep point.
	compCap := env.runs() * comp.Cores
	latCap := env.runs() * comm.Iters
	bwAlone := make([]float64, 0, compCap)
	bwTogether := make([]float64, 0, compCap)
	secsAlone := make([]float64, 0, compCap)
	secsTogether := make([]float64, 0, compCap)
	latAlone := make([]float64, 0, latCap)
	latTogether := make([]float64, 0, latCap)

	for run := 0; run < env.runs(); run++ {
		seed := env.Seed + int64(run)

		// Step 1: computation without communication.
		if comp.Cores > 0 {
			c, w := newWorld(env, seed)
			cores := computeCores(env.Spec, comp.Cores, pickCommCore(w, comm))
			iters := comp.MinIters
			if iters <= 0 {
				iters = 3
			}
			for _, node := range c.Nodes {
				node := node
				for _, core := range cores {
					core := core
					c.K.Spawn("compute", func(p *sim.Proc) {
						r := kernels.LoopN(p, node, core, comp.Slice, iters)
						if node.ID == 0 {
							bwAlone = append(bwAlone, r.BytesPerSec)
							secsAlone = append(secsAlone, r.PerIter.Seconds())
						}
					})
				}
			}
			c.K.Run()
		}

		// Step 2: communication without computation.
		{
			c, w := newWorld(env, seed)
			pp := applyComm(w, comm)
			var lats []sim.Duration
			c.K.Spawn("init", func(p *sim.Proc) { lats = pp.Initiate(p, w.Rank(0), 1) })
			c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
			c.K.Run()
			for _, l := range lats {
				latAlone = append(latAlone, l.Seconds())
			}
		}

		// Step 3: computation with side-by-side communication.
		{
			c, w := newWorld(env, seed)
			pp := applyComm(w, comm)
			commDone := false
			cores := computeCores(env.Spec, comp.Cores, w.Rank(0).CommCore)
			for _, node := range c.Nodes {
				node := node
				for _, core := range cores {
					core := core
					c.K.Spawn("compute", func(p *sim.Proc) {
						r := kernels.LoopWhile(p, node, core, comp.Slice, func() bool { return !commDone })
						if node.ID == 0 && r.Iters > 0 {
							bwTogether = append(bwTogether, r.BytesPerSec)
							secsTogether = append(secsTogether, r.PerIter.Seconds())
						}
					})
				}
			}
			var lats []sim.Duration
			c.K.Spawn("init", func(p *sim.Proc) {
				// Let computation reach steady state before measuring.
				p.Sleep(sim.Duration(2 * sim.Millisecond))
				lats = pp.Initiate(p, w.Rank(0), 1)
				commDone = true
			})
			c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
			c.K.Run()
			for _, l := range lats {
				latTogether = append(latTogether, l.Seconds())
			}
		}
	}

	res.ComputeAlone = stats.SummarizeInPlace(bwAlone)
	res.ComputeTogether = stats.SummarizeInPlace(bwTogether)
	res.ComputeSecsAlone = stats.SummarizeInPlace(secsAlone)
	res.ComputeSecsTogether = stats.SummarizeInPlace(secsTogether)
	res.CommAlone = stats.SummarizeInPlace(latAlone)
	res.CommTogether = stats.SummarizeInPlace(latTogether)
	return res
}

// pickCommCore resolves the effective communication core for a config.
func pickCommCore(w *mpi.World, cc CommConfig) int {
	if cc.CommCore >= 0 {
		return cc.CommCore
	}
	return w.Rank(0).CommCore
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
