package taskrt

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestSchedulerPolicyStrings(t *testing.T) {
	if EagerFIFO.String() != "eager-fifo" || NUMALocal.String() != "numa-local" {
		t.Fatal("policy names")
	}
}

func TestQueueRouting(t *testing.T) {
	c := machine.NewCluster(noNoise(), 1, 1)
	rt := New(Config{
		Node: c.Nodes[0], MainCore: 0, CommCore: 35,
		WorkerCores: []int{1}, Scheduler: NUMALocal,
	})
	memTask := NewTask(machine.ComputeSpec{Bytes: 100, MemNUMA: 2, Class: topology.AVX2})
	if got := rt.queueFor(memTask); got != 2 {
		t.Fatalf("memory task routed to %d, want NUMA list 2", got)
	}
	cpuTask := NewTask(machine.ComputeSpec{Flops: 100, Class: topology.Scalar})
	if got := rt.queueFor(cpuTask); got != rt.centralQueue() {
		t.Fatalf("CPU task routed to %d, want central %d", got, rt.centralQueue())
	}
	localTask := NewTask(machine.ComputeSpec{Bytes: 100, MemNUMA: -1, Class: topology.AVX2})
	if got := rt.queueFor(localTask); got != rt.centralQueue() {
		t.Fatalf("worker-local task routed to %d, want central", got)
	}
}

func TestQueueRoutingFIFOAlwaysCentral(t *testing.T) {
	c := machine.NewCluster(noNoise(), 1, 1)
	rt := New(Config{Node: c.Nodes[0], MainCore: 0, CommCore: 35, WorkerCores: []int{1}})
	memTask := NewTask(machine.ComputeSpec{Bytes: 100, MemNUMA: 2, Class: topology.AVX2})
	if got := rt.queueFor(memTask); got != rt.centralQueue() {
		t.Fatalf("FIFO routed to %d, want central", got)
	}
}

func TestPopOrderPrefersLocalThenCentral(t *testing.T) {
	c := machine.NewCluster(noNoise(), 1, 1)
	rt := New(Config{
		Node: c.Nodes[0], MainCore: 0, CommCore: 35,
		WorkerCores: []int{1}, Scheduler: NUMALocal,
	})
	// One task on every ready list: a worker on NUMA 2 pops its local
	// list, then the central one, and steals from the other three only
	// when allowed to.
	lists := rt.centralQueue() + 1
	for q := 0; q < lists; q++ {
		rt.queues[q].Push(NewTask(machine.ComputeSpec{}))
	}
	var order []int
	for {
		task, q := rt.tryPop(2, len(order) >= 2)
		if task == nil {
			break
		}
		order = append(order, q)
		if len(order) == 2 {
			if task, _ := rt.tryPop(2, false); task != nil {
				t.Fatalf("pop order %v: popped a remote list without stealing", order)
			}
		}
	}
	if want := []int{2, rt.centralQueue(), 0, 1, 3}; !slices.Equal(order, want) {
		t.Fatalf("pop order %v, want %v", order, want)
	}
}

func TestNUMALocalExecutesOnDataNode(t *testing.T) {
	// Workers on NUMA 0 (core 1) and NUMA 2 (core 20); a task with data
	// on NUMA 2 must be run by core 20.
	c := machine.NewCluster(noNoise(), 1, 1)
	rt := New(Config{
		Node: c.Nodes[0], MainCore: 0, CommCore: 35,
		WorkerCores: []int{1, 20}, Scheduler: NUMALocal,
	})
	rt.Start()
	task := NewTask(machine.ComputeSpec{
		Flops: 1e6, Bytes: 1e6, MemNUMA: 2, Class: topology.AVX2,
	})
	c.K.Spawn("main", func(p *sim.Proc) {
		rt.Submit(p, task)
		rt.WaitAll(p)
		rt.Shutdown()
	})
	c.K.RunUntil(sim.Time(sim.Second))
	if !task.Done() {
		t.Fatal("task did not run")
	}
	// Core 20 (NUMA 2) must have executed it: its counters show the
	// memory traffic.
	if got := c.Nodes[0].Counters.Core(20).MemBytes; got != 1e6 {
		t.Fatalf("core 20 moved %v bytes, want 1e6 (locality violated)", got)
	}
	if got := c.Nodes[0].Counters.Core(1).MemBytes; got != 0 {
		t.Fatalf("core 1 moved %v bytes, want 0", got)
	}
}

func TestNUMALocalStealsWhenNoLocalWorker(t *testing.T) {
	// Only a NUMA-0 worker exists; a NUMA-3 task must still run
	// (stolen from the remote list).
	c := machine.NewCluster(noNoise(), 1, 1)
	rt := New(Config{
		Node: c.Nodes[0], MainCore: 0, CommCore: 35,
		WorkerCores: []int{1}, Scheduler: NUMALocal,
	})
	rt.Start()
	task := NewTask(machine.ComputeSpec{
		Flops: 1e6, Bytes: 1e6, MemNUMA: 3, Class: topology.AVX2,
	})
	c.K.Spawn("main", func(p *sim.Proc) {
		rt.Submit(p, task)
		rt.WaitAll(p)
		rt.Shutdown()
	})
	c.K.RunUntil(sim.Time(sim.Second))
	if !task.Done() {
		t.Fatal("remote task never stolen")
	}
}

func TestCommThrottleParksWorkersDuringComm(t *testing.T) {
	c, _, rts := starpuPair(t, noNoise(), DefaultBackoff, []int{1, 2})
	for i := 0; i < 2; i++ {
		cfg := rts[i].cfg
		cfg.CommThrottle = 2
		rts[i].cfg = cfg
	}
	// Post a large transfer; while it is in flight, submit a task: the
	// throttled workers must not run it until the transfer completes.
	var taskAt, commAt sim.Time
	task := NewTask(machine.ComputeSpec{Flops: 1e6, Class: topology.Scalar})
	task.OnDone = func() { taskAt = c.K.Now() }
	c.K.Spawn("main0", func(p *sim.Proc) {
		buf := rts[0].Node().Alloc(16<<20, 0)
		h := rts[0].PostSend(p, 1, 5, buf, 16<<20)
		rts[0].Submit(p, task)
		if err := h.Wait(p); err != nil {
			t.Error(err)
		}
		commAt = p.Now()
		rts[0].WaitAll(p)
		rts[0].Shutdown()
		rts[1].Shutdown()
	})
	c.K.Spawn("main1", func(p *sim.Proc) {
		buf := rts[1].Node().Alloc(16<<20, 0)
		if err := rts[1].PostRecv(p, 0, 5, buf, 16<<20).Wait(p); err != nil {
			t.Error(err)
		}
	})
	c.K.RunUntil(sim.Time(10 * sim.Second))
	if taskAt == 0 || commAt == 0 {
		t.Fatalf("incomplete: task=%v comm=%v", taskAt, commAt)
	}
	if taskAt < commAt {
		t.Fatalf("throttled worker ran the task at %v before comm finished at %v", taskAt, commAt)
	}
}

func TestCommThrottleZeroDoesNotPark(t *testing.T) {
	c, _, rts := starpuPair(t, noNoise(), DefaultBackoff, []int{1})
	var taskAt, commAt sim.Time
	task := NewTask(machine.ComputeSpec{Flops: 1e6, Class: topology.Scalar})
	task.OnDone = func() { taskAt = c.K.Now() }
	c.K.Spawn("main0", func(p *sim.Proc) {
		buf := rts[0].Node().Alloc(16<<20, 0)
		h := rts[0].PostSend(p, 1, 5, buf, 16<<20)
		rts[0].Submit(p, task)
		if err := h.Wait(p); err != nil {
			t.Error(err)
		}
		commAt = p.Now()
		rts[0].WaitAll(p)
		rts[0].Shutdown()
		rts[1].Shutdown()
	})
	c.K.Spawn("main1", func(p *sim.Proc) {
		buf := rts[1].Node().Alloc(16<<20, 0)
		if err := rts[1].PostRecv(p, 0, 5, buf, 16<<20).Wait(p); err != nil {
			t.Error(err)
		}
	})
	c.K.RunUntil(sim.Time(10 * sim.Second))
	if taskAt == 0 || commAt == 0 {
		t.Fatal("incomplete")
	}
	if taskAt >= commAt {
		t.Fatalf("unthrottled worker waited for comm: task=%v comm=%v", taskAt, commAt)
	}
}
