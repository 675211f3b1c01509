package taskrt

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkWorkerHerd pushes tasks one at a time onto a henri runtime
// whose 34 workers poll an empty central list: every push wakes the
// idle herd, one worker wins the task and the others lose the race and
// poll again (§5.4). It reports the process resumes and fluid solves per
// push, which are deterministic counts; CI ratchets resumes/push.
func BenchmarkWorkerHerd(b *testing.B) {
	c := machine.NewCluster(noNoise(), 1, 1)
	rt := New(Config{Node: c.Nodes[0], MainCore: 0, CommCore: 35})
	rt.Start()
	spec := machine.ComputeSpec{Flops: 1e6, Class: topology.Scalar}
	var resumes, solves uint64
	c.K.Spawn("main", func(p *sim.Proc) {
		// One push first, so every worker has gone idle once.
		warm := NewTask(spec)
		rt.Submit(p, warm)
		rt.WaitTask(p, warm)
		r0, s0 := c.K.Resumes(), c.Fluid.Solves()
		for i := 0; i < b.N; i++ {
			t := NewTask(spec)
			rt.Submit(p, t)
			rt.WaitTask(p, t)
		}
		resumes, solves = c.K.Resumes()-r0, c.Fluid.Solves()-s0
		rt.Shutdown()
	})
	b.ReportAllocs()
	b.ResetTimer()
	c.K.Run()
	b.StopTimer()
	if c.K.LiveProcs() != 0 {
		b.Fatalf("%d processes left after shutdown", c.K.LiveProcs())
	}
	b.ReportMetric(float64(resumes)/float64(b.N), "resumes/push")
	b.ReportMetric(float64(solves)/float64(b.N), "solves/push")
}

// BenchmarkRuntimePingPong runs b.N iterations of Fig 8's runtime
// ping-pong on henri: 4 B messages between two runtimes with paused
// workers, the data and the communication thread on the NIC's NUMA
// node, and the main threads as processes. Every message crosses the
// runtime's software path (submission, request list, communication
// thread, MPI). It reports the process resumes (less the spawns) and
// kernel events per iteration, which are deterministic counts; CI
// ratchets resumes/iter. The communication thread and its requests
// resume no process: what is left is the main threads' waits.
func BenchmarkRuntimePingPong(b *testing.B) {
	spec := topology.Henri()
	c := machine.NewCluster(spec, 2, 1)
	w := mpi.NewWorld(c, net.New(c))
	var rts [2]*Runtime
	var pps [2]*PingPong
	for i := range rts {
		w.Rank(i).SetCommCore(spec.LastCoreOfNUMA(spec.NIC.NUMA))
		rts[i] = New(Config{Node: c.Nodes[i], Rank: w.Rank(i), CommCore: w.Rank(i).CommCore, WorkerCores: []int{1, 2}})
		rts[i].Start()
		rts[i].PauseWorkers()
		pps[i] = &PingPong{Size: 4, Iters: b.N, Buf: c.Nodes[i].Alloc(4, spec.NIC.NUMA)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	c.K.Spawn("init", func(p *sim.Proc) {
		pps[0].Initiate(p, rts[0], 1)
		rts[0].Shutdown()
		rts[1].Shutdown()
	})
	c.K.Spawn("resp", func(p *sim.Proc) { pps[1].Respond(p, rts[1], 0) })
	spawned := uint64(c.K.LiveProcs())
	c.K.Run()
	b.StopTimer()
	if c.K.LiveProcs() != 0 {
		b.Fatalf("%d processes left after shutdown", c.K.LiveProcs())
	}
	b.ReportMetric(float64(c.K.Resumes()-spawned)/float64(b.N), "resumes/iter")
	b.ReportMetric(float64(c.K.Steps())/float64(b.N), "events/iter")
}
