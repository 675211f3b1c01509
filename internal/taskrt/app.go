package taskrt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// App is an iterative distributed application in the style of §6's use
// cases: every iteration, each rank submits a batch of tasks to its
// runtime and exchanges boundary data with its peer, then waits for the
// batch to drain. The problem shape (tasks and communication volume per
// iteration) is fixed regardless of the worker count, as in the paper.
type App struct {
	// Name labels the spawned processes.
	Name string
	// Slice builds task i's compute slice (i in [0, TasksPerIter)).
	Slice func(i int) machine.ComputeSpec
	// TasksPerIter and Iterations define the task workload.
	TasksPerIter, Iterations int
	// MsgSize and MsgsPerIter define the per-iteration symmetric
	// exchange with the peer rank.
	MsgSize     int64
	MsgsPerIter int
	// HandleNUMA places the exchanged data handles (first-touch by
	// workers in StarPU, typically far from the NIC); -1 means the last
	// NUMA node.
	HandleNUMA int
}

// AppStats reports one rank's execution.
type AppStats struct {
	// Elapsed is the total execution time; IterSeconds the mean
	// iteration time.
	Elapsed     sim.Duration
	IterSeconds float64
	// SendBandwidth is the §6 sending-bandwidth metric (bytes/s).
	SendBandwidth float64
	// StallFraction is the node-wide memory-stall fraction.
	StallFraction float64
}

// Run executes the app on both runtimes of a two-node setup, blocking
// until both sides finish all iterations, and returns rank 0's stats.
// The runtimes must already be started; Run shuts them down.
func (a *App) Run(rts [2]*Runtime) AppStats {
	if a.TasksPerIter <= 0 || a.Iterations <= 0 {
		panic("taskrt: App needs tasks and iterations")
	}
	k := rts[0].k
	var done [2]bool
	var start, end sim.Time
	start = k.Now()
	for side := 0; side < 2; side++ {
		side := side
		rt := rts[side]
		peer := 1 - side
		k.Spawn(fmt.Sprintf("app.%s.n%d", a.Name, side), func(p *sim.Proc) {
			handleNUMA := a.HandleNUMA
			if handleNUMA < 0 {
				handleNUMA = rt.node.Spec.NUMANodes() - 1
			}
			var sendBuf, recvBuf *machine.Buffer
			if a.MsgsPerIter > 0 {
				sendBuf = rt.node.Alloc(a.MsgSize, handleNUMA)
				recvBuf = rt.node.Alloc(a.MsgSize, handleNUMA)
			}
			for it := 0; it < a.Iterations; it++ {
				var tasks []*Task
				for i := 0; i < a.TasksPerIter; i++ {
					tasks = append(tasks, NewTask(a.Slice(i)))
				}
				rt.Submit(p, tasks...)
				for m := 0; m < a.MsgsPerIter; m++ {
					tag := it*1000 + m
					rh := rt.PostRecv(p, peer, tag, recvBuf, a.MsgSize)
					sh := rt.PostSend(p, peer, tag, sendBuf, a.MsgSize)
					must(sh.Wait(p))
					must(rh.Wait(p))
				}
				rt.WaitAll(p)
			}
			done[side] = true
			if done[0] && done[1] {
				end = p.Now()
				rts[0].Shutdown()
				rts[1].Shutdown()
			}
		})
	}
	k.RunUntil(k.Now().Add(sim.Duration(3600 * sim.Second)))
	if !done[0] || !done[1] {
		panic(fmt.Sprintf("taskrt: app %q did not finish within the horizon", a.Name))
	}
	node := rts[0].node
	elapsed := end.Sub(start)
	return AppStats{
		Elapsed:       elapsed,
		IterSeconds:   elapsed.Seconds() / float64(a.Iterations),
		SendBandwidth: node.Counters.SendBandwidth(),
		StallFraction: node.Counters.StallFraction(),
	}
}
