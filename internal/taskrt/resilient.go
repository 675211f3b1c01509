package taskrt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ResilientApp is an iterative distributed application written against
// the runtime that survives node crashes: every rank executes its share
// of an iteration's tasks, exchanges halos with its ring neighbours
// through the fault-tolerant MPI path, and periodically takes a
// coordinated checkpoint. When the failure detector declares a rank
// dead, the survivors shrink the ring, roll back to the last completed
// checkpoint, and re-execute the lost work — including every task whose
// execution (and output handle) lived on the crashed node. Lineage is
// tracked per task (ranBy), so the re-execution and rollback accounting
// lands in the hardware counters (TasksReexecuted, RollbackIters,
// Checkpoints, RecoverySecs) alongside the detector's PeerDeaths.
type ResilientApp struct {
	// Name labels the application's tasks and processes.
	Name string
	// Slice builds the compute spec of task i of one iteration.
	Slice func(i int) machine.ComputeSpec
	// TasksPerIter tasks per iteration are dealt round-robin over the
	// live ranks; Iterations is the total iteration count.
	TasksPerIter int
	Iterations   int
	// MsgSize is the per-neighbour halo exchanged after each iteration's
	// tasks complete (0 skips the exchange).
	MsgSize int64
	// HandleNUMA places the halo buffers; negative means the NIC's NUMA
	// node.
	HandleNUMA int
	// CheckpointEvery takes a coordinated checkpoint after every that
	// many completed iterations; 0 disables checkpointing, so recovery
	// replays from iteration 0.
	CheckpointEvery int
	// CheckpointBytes is the state each rank writes per checkpoint.
	CheckpointBytes int64
	// Horizon bounds the simulated duration of one Run (default 30 s):
	// exceeding it panics instead of letting a coordination bug run the
	// simulation forever.
	Horizon sim.Duration

	// Progress hooks, all optional, called in simulation context on the
	// coordinating rank: OnIteration when iteration it completes on all
	// live ranks (called again when a rollback replays it), OnCheckpoint
	// when the checkpoint of iteration it commits, OnRollback when
	// recovery rewinds to checkpoint ckpt (-1 = initial state). A host
	// application mirrors its numeric state through these hooks to get
	// bit-identical recovery semantics (see bench.CrashCG).
	OnIteration  func(it int)
	OnCheckpoint func(it int)
	OnRollback   func(ckpt int)
}

// ResilientStats summarises one resilient run.
type ResilientStats struct {
	Elapsed        sim.Duration
	CompletedIters int
	Survivors      int
	Crashes        int
	TasksReexec    float64
	RollbackIters  float64
	Checkpoints    float64
	RecoverySecs   float64
}

func (app *ResilientApp) name() string {
	if app.Name == "" {
		return "resilient"
	}
	return app.Name
}

func (app *ResilientApp) horizon() sim.Duration {
	if app.Horizon > 0 {
		return app.Horizon
	}
	return 30 * sim.Second
}

// resilientRun is the shared coordination state of one Run. All access
// happens inside the (single-threaded, deterministic) event loop.
type resilientRun struct {
	app *ResilientApp
	rts []*Runtime
	det *mpi.Detector
	k   *sim.Kernel
	sig *sim.Signal // progress signal: barrier arrivals, deaths, finish

	epoch      int   // bumped on every death; invalidates in-flight work
	alive      []int // current communicator members, sorted
	ckptIter   int   // last checkpointed iteration (-1 = none)
	completed  int   // iterations completed by all live ranks
	maxStarted int   // highest iteration whose tasks started
	ranBy      [][]int

	preArrive  map[[2]int]int // {epoch, it} → ranks committed to exchange
	endArrive  map[[2]int]int // {epoch, it} → ranks done with iteration
	ckptArrive map[[2]int]int // {epoch, it} → ranks done checkpointing

	recovering   bool
	recoverStart sim.Time
	replayTarget int

	crashes      int
	reexec       float64
	rollback     float64
	checkpoints  float64
	recoverySecs float64

	finished int
	done     bool
	endTime  sim.Time
	watchdog sim.EventRef
}

// Run executes the application over the given per-rank runtimes (all
// Started, one per cluster node, in rank order) with an armed failure
// detector, drives the simulation to completion, and returns the run's
// statistics. It owns the kernel: it spawns the rank drivers, runs the
// event loop, stops the detector and shuts the runtimes down once every
// live rank has finished.
func (app *ResilientApp) Run(rts []*Runtime, det *mpi.Detector) ResilientStats {
	if len(rts) < 2 {
		panic("taskrt: ResilientApp needs at least two runtimes")
	}
	if app.Slice == nil || app.TasksPerIter <= 0 || app.Iterations <= 0 {
		panic("taskrt: ResilientApp needs Slice, TasksPerIter and Iterations")
	}
	if det == nil {
		panic("taskrt: ResilientApp needs an armed failure detector")
	}
	k := rts[0].k
	st := &resilientRun{
		app: app, rts: rts, det: det, k: k,
		sig:        sim.NewSignal(k),
		ckptIter:   -1,
		preArrive:  make(map[[2]int]int),
		endArrive:  make(map[[2]int]int),
		ckptArrive: make(map[[2]int]int),
	}
	for i := range rts {
		st.alive = append(st.alive, i)
	}
	st.ranBy = make([][]int, app.Iterations)
	for i := range st.ranBy {
		row := make([]int, app.TasksPerIter)
		for j := range row {
			row[j] = -1
		}
		st.ranBy[i] = row
	}
	det.OnDeath(st.onDeath)
	start := k.Now()
	for i := range rts {
		i := i
		k.Spawn(fmt.Sprintf("app.%s.n%d", app.name(), i), func(p *sim.Proc) {
			st.drive(p, i)
		})
	}
	st.watchdog = k.At(start.Add(app.horizon()), func() {
		panic(fmt.Sprintf("taskrt: resilient app %q exceeded its %v horizon (completed %d/%d iterations)",
			app.name(), app.horizon(), st.completed, app.Iterations))
	})
	k.Run()
	if !st.done {
		panic(fmt.Sprintf("taskrt: resilient app %q deadlocked (completed %d/%d iterations)",
			app.name(), st.completed, app.Iterations))
	}
	return ResilientStats{
		Elapsed:        st.endTime.Sub(start),
		CompletedIters: st.completed,
		Survivors:      len(st.alive),
		Crashes:        st.crashes,
		TasksReexec:    st.reexec,
		RollbackIters:  st.rollback,
		Checkpoints:    st.checkpoints,
		RecoverySecs:   st.recoverySecs,
	}
}

// onDeath is the recovery protocol, run in event context at the instant
// the detector declares a rank dead: shrink the communicator, count the
// lost lineage (tasks executed since the last checkpoint on the dead
// rank, whose outputs died with it), roll progress back to the last
// checkpoint, and bump the epoch so every in-flight iteration restarts.
func (st *resilientRun) onDeath(dead int) {
	idx := -1
	for i, r := range st.alive {
		if r == dead {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	st.alive = append(st.alive[:idx], st.alive[idx+1:]...)
	st.crashes++
	if st.done || len(st.alive) == 0 || st.completed >= st.app.Iterations {
		// Nothing left to recover: the work is finished (or nobody
		// survives to do it).
		st.epoch++
		st.sig.Broadcast()
		st.maybeFinish()
		return
	}
	node := st.rts[st.alive[0]].node
	reexec := 0
	for it := st.ckptIter + 1; it <= st.maxStarted && it < st.app.Iterations; it++ {
		for _, who := range st.ranBy[it] {
			if who == dead {
				reexec++
			}
		}
	}
	rollback := st.completed - (st.ckptIter + 1)
	if rollback < 0 {
		rollback = 0
	}
	st.reexec += float64(reexec)
	st.rollback += float64(rollback)
	node.Counters.TasksReexecuted += float64(reexec)
	node.Counters.RollbackIters += float64(rollback)
	if st.app.OnRollback != nil {
		st.app.OnRollback(st.ckptIter)
	}
	prev := st.completed
	st.completed = st.ckptIter + 1
	st.maxStarted = st.ckptIter
	if st.recovering {
		if prev > st.replayTarget {
			st.replayTarget = prev
		}
	} else if prev > st.completed {
		st.recovering = true
		st.recoverStart = st.k.Now()
		st.replayTarget = prev
	}
	st.epoch++
	st.sig.Broadcast()
}

// drive is one rank's application loop.
func (st *resilientRun) drive(p *sim.Proc, id int) {
	app := st.app
	rt := st.rts[id]
	node := rt.node
	numa := app.HandleNUMA
	if numa < 0 {
		numa = node.Spec.NIC.NUMA
	}
	sendBuf := node.Alloc(max(app.MsgSize, 1), numa)
	recvBuf := node.Alloc(max(app.MsgSize, 1), numa)

	myEpoch := st.epoch
	members := append([]int(nil), st.alive...)

	it := 0
	for it < app.Iterations {
		if st.epoch != myEpoch {
			// A death was declared: resynchronise on the shrunken
			// communicator and replay from the checkpoint.
			myEpoch = st.epoch
			it = st.ckptIter + 1
			members = append([]int(nil), st.alive...)
			if memberIndex(members, id) < 0 {
				return // declared dead (e.g. a recovered node): stand down
			}
			continue
		}

		// 1. Task phase: execute this rank's share of the iteration,
		// recording lineage for crash recovery.
		if it > st.maxStarted {
			st.maxStarted = it
		}
		var tasks []*Task
		for t := 0; t < app.TasksPerIter; t++ {
			if members[t%len(members)] != id {
				continue
			}
			st.ranBy[it][t] = id
			spec := app.Slice(t)
			if spec.Name == "" {
				spec.Name = fmt.Sprintf("%s.i%d.t%d", app.name(), it, t)
			}
			tasks = append(tasks, NewTask(spec))
		}
		rt.Submit(p, tasks...)
		rt.WaitAll(p)
		if st.epoch != myEpoch {
			continue
		}

		// 2. Commitment barrier: once every member arrives, all of them
		// post the exchange below — so between two live ranks every send
		// has its matching receive, and only operations involving the
		// dead rank can error out. Restarting before this barrier is
		// always safe because nothing has been posted yet.
		key := [2]int{myEpoch, it}
		st.preArrive[key]++
		if st.preArrive[key] == len(members) {
			st.sig.Broadcast()
		}
		for st.preArrive[key] < len(members) && st.epoch == myEpoch {
			st.sig.Wait(p)
		}
		if st.epoch != myEpoch {
			continue
		}

		// 3. Halo exchange over the member ring, tags scoped by
		// (epoch, iteration) so replayed iterations never match stale
		// messages. Errors (a peer died mid-exchange) are resolved by
		// the epoch check: a dead-peer error always comes with a bumped
		// epoch.
		if len(members) > 1 && app.MsgSize > 0 {
			my := memberIndex(members, id)
			next := members[(my+1)%len(members)]
			prev := members[(my-1+len(members))%len(members)]
			tagBase := 1_000_000 + (myEpoch*app.Iterations+it)*64
			sh := rt.PostSendFT(p, next, tagBase+id, sendBuf, app.MsgSize)
			rh := rt.PostRecvFT(p, prev, tagBase+prev, recvBuf, app.MsgSize)
			sh.Wait(p)
			rh.Wait(p)
		}
		if st.epoch != myEpoch {
			continue
		}

		// 4. Completion barrier: the last member to arrive commits the
		// iteration and closes the recovery window once the pre-crash
		// progress has been regained.
		st.endArrive[key]++
		if st.endArrive[key] == len(members) {
			st.completed = it + 1
			if app.OnIteration != nil {
				app.OnIteration(it)
			}
			if st.recovering && st.completed >= st.replayTarget {
				st.recovering = false
				secs := p.Now().Sub(st.recoverStart).Seconds()
				st.recoverySecs += secs
				st.rts[st.alive[0]].node.Counters.RecoverySecs += secs
			}
			st.sig.Broadcast()
		}
		for st.completed <= it && st.epoch == myEpoch {
			st.sig.Wait(p)
		}
		if st.epoch != myEpoch {
			continue
		}

		// 5. Coordinated checkpoint: each member writes its state, the
		// last one commits the checkpoint.
		if app.CheckpointEvery > 0 && (it+1)%app.CheckpointEvery == 0 && it > st.ckptIter {
			if app.CheckpointBytes > 0 {
				node.ExecCompute(p, rt.cfg.MainCore, machine.ComputeSpec{
					Bytes:   float64(app.CheckpointBytes),
					Class:   topology.Scalar,
					MemNUMA: -1,
					Name:    fmt.Sprintf("%s.ckpt.n%d", app.name(), id),
				})
			}
			if st.epoch == myEpoch {
				st.ckptArrive[key]++
				if st.ckptArrive[key] == len(members) {
					st.ckptIter = it
					st.checkpoints++
					st.rts[st.alive[0]].node.Counters.Checkpoints++
					if app.OnCheckpoint != nil {
						app.OnCheckpoint(it)
					}
					st.sig.Broadcast()
				}
				for st.ckptIter < it && st.epoch == myEpoch {
					st.sig.Wait(p)
				}
			}
			if st.epoch != myEpoch {
				continue
			}
		}
		it++
	}
	st.finished++
	st.maybeFinish()
}

// maybeFinish ends the run once every live rank's driver has completed
// the full iteration count: stop the detector (a later crash is not
// part of the run), cancel the watchdog, and shut every runtime down.
func (st *resilientRun) maybeFinish() {
	if st.done || st.completed < st.app.Iterations || st.finished < len(st.alive) {
		return
	}
	st.done = true
	st.endTime = st.k.Now()
	st.det.Stop()
	st.k.Cancel(st.watchdog)
	for _, rt := range st.rts {
		if rt.started && !rt.shutdown {
			rt.Shutdown()
		}
	}
	st.sig.Broadcast()
}

func memberIndex(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
