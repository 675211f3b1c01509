package taskrt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The workers, the communication thread and its requests run as
// continuations. The twin test runs random scenarios twice: once so, and
// once with each of them as the process it used to be (startProcs): the
// workers block in Sleep, Signal.Wait, MemAccesses and ExecCompute
// (workerProc), and the thread spawns one process per request that
// blocks in each MPI operation (commLoopProc). Both must agree on
// everything a measurement can read: the request and task instants and
// the rest of the execution traces, every node counter, the scenario's
// results (or its panic), the fluid solves and the kernel's event
// count.

// startProcs is Start with the workers and the communication thread as
// processes.
func (rt *Runtime) startProcs() {
	rt.startWorkers()
	for i := range rt.workers {
		w := &rt.workers[i]
		rt.k.Spawn(fmt.Sprintf("worker.n%d.c%d", rt.node.ID, w.core), w.workerProc)
	}
	if rt.cfg.Rank != nil {
		rt.k.Spawn(fmt.Sprintf("commthread.n%d", rt.node.ID), rt.commLoopProc)
	}
}

// workerProc is the worker as a process: the continuation's waits are
// its blocking calls.
func (w *worker) workerProc(p *sim.Proc) {
	rt, node := w.rt, w.rt.node
	for !rt.shutdown {
		if rt.paused {
			node.Freq.SetIdle(w.core)
			rt.pauseSig.Wait(p)
			continue
		}
		if rt.throttled(w.idx) {
			node.Freq.SetIdle(w.core)
			rt.commIdleSig.Wait(p)
			continue
		}
		if !w.pollProc(p) {
			continue
		}
		t := w.task
		w.task = nil
		node.MemAccesses(p, w.core, rt.queueHomeNUMA(w.fromQ), 2)
		start := p.Now()
		node.ExecCompute(p, w.core, t.Spec)
		rt.traceEvent(w.core, "task", t.Spec.Name, start, p.Now())
		rt.complete(t)
	}
	node.Freq.SetIdle(w.core)
}

// pollProc is the idle protocol of workerProc: it busy-waits on the
// ready lists, and reports true once the worker won a task and false
// once it must block.
func (w *worker) pollProc(p *sim.Proc) bool {
	rt := w.rt
	for {
		rt.node.Freq.SetActive(w.core, topology.Scalar)
		if w.pop(true) {
			return true
		}
		w.poll()
		rt.readySig.Wait(p)
		if w.block() {
			return false
		}
		p.Sleep(rt.pollPeriod(w.core) / 2)
		if w.pop(false) {
			return true
		}
		p.Sleep(rt.pollPeriod(w.core))
		if w.pop(true) {
			return true
		}
		if w.block() {
			return false
		}
	}
}

// commLoopProc is the communication thread as a process: commStep's
// waits are its blocking calls, and each request is a process whose
// blocking calls are the request chain's waits.
func (rt *Runtime) commLoopProc(p *sim.Proc) {
	node, core, rank := rt.node, rt.cfg.CommCore, rt.cfg.Rank
	node.Freq.SetActive(core, topology.Scalar)
	defer node.Freq.SetIdle(core)
	for {
		for !rt.shutdown && rt.commQ.Len() == 0 {
			rt.commSig.Wait(p)
		}
		if rt.shutdown {
			return
		}
		h, _ := rt.commQ.TryPop()
		if h.send {
			node.ExecCycles(p, core, commSendFrac*node.Spec.RuntimeCyclesPerMsg)
			node.MemAccesses(p, core, h.dataNUMA, handleAccesses)
		} else {
			node.ExecCycles(p, core, commRecvFrac*node.Spec.RuntimeCyclesPerMsg)
		}
		rt.k.Spawn(fmt.Sprintf("mpireq.n%d", node.ID), func(hp *sim.Proc) {
			h.begun = hp.Now()
			if h.send {
				h.err = parkOn(hp, func(then func(error)) { rank.StartSend(h.peer, h.tag, h.buf, h.size, then) })
			} else {
				h.err = parkOn(hp, func(then func(error)) { rank.StartRecv(h.peer, h.tag, h.buf, h.size, then) })
				if h.err == nil {
					node.MemAccesses(hp, core, h.dataNUMA, handleAccesses)
				}
			}
			node.ExecCycles(hp, core, deliverFrac*node.Spec.RuntimeCyclesPerMsg)
			label := "recv"
			if h.send {
				label = "send"
			}
			rt.traceEvent(core, "comm", label, h.begun, hp.Now())
			h.done = true
			if h.then != nil {
				h.then(h.err)
			}
			if rt.commInflight--; rt.commInflight == 0 {
				rt.commIdleSig.Broadcast()
			}
			h.doneSig.Broadcast()
		})
	}
}

// parkOn runs the operation start starts for p, which parks until the
// operation ends unless it ends within the call, and returns its
// outcome: the blocking MPI call of a process.
func parkOn(p *sim.Proc, start func(then func(error))) error {
	var err error
	ended, parked := false, false
	start(func(e error) {
		err, ended = e, true
		if parked {
			p.Resume()
		}
	})
	if !ended {
		parked = true
		p.Park()
	}
	return err
}

// twinRun is what one run of a twin scenario observed.
type twinRun struct {
	result   any
	panicked string
	traces   [][]ExecEvent
	counters []counters.Set
	solves   uint64
	steps    uint64
	end      sim.Time
}

// twinWorld is a scenario's world: a cluster, its MPI world and one
// traced runtime per node, built but not started.
type twinWorld struct {
	c   *machine.Cluster
	w   *mpi.World
	rts []*Runtime
}

// twinScenario is one scenario: its world's shape, fault schedule and
// runtime knobs, whether it arms a failure detector, the window its
// workers are paused over, and what it runs once its runtimes started.
// Everything random is drawn when the scenario is built, so both runs
// see the same draws.
type twinScenario struct {
	name     string
	nodes    int
	sched    string // fault schedule, "" for none
	detector bool
	cfg      func(cfg *Config)
	pause    pause
	run      func(tw *twinWorld, det *mpi.Detector) any
}

// pause is a window over which every runtime's workers are paused:
// none when to is 0, until the end when to is negative.
type pause struct{ from, to sim.Duration }

// randPause draws no pause, a window, or, when whole is set, maybe a
// pause for the whole run.
func randPause(rng *rand.Rand, whole bool) pause {
	switch rng.Intn(3) {
	case 0:
		return pause{}
	case 1:
		if whole {
			return pause{to: -1}
		}
	}
	from := sim.Duration(rng.Intn(200)) * sim.Microsecond
	return pause{from, from + sim.Duration(1+rng.Intn(300))*sim.Microsecond}
}

// runTwin builds the scenario's world and runs it, starting its
// runtimes with start.
func runTwin(sc twinScenario, start func(*Runtime)) (out twinRun) {
	spec := noNoise()
	c := machine.NewCluster(spec, sc.nodes, 1)
	nw := net.New(c)
	if sc.sched != "" {
		s, err := fault.ParseSpec(sc.sched)
		if err != nil {
			panic(err)
		}
		nw.InstallFaults(fault.NewInjector(c, s, 1))
	}
	tw := &twinWorld{c: c, w: mpi.NewWorld(c, nw)}
	for i := 0; i < sc.nodes; i++ {
		cfg := Config{Node: c.Nodes[i], Rank: tw.w.Rank(i), WorkerCores: []int{1, 2, 3}}
		sc.cfg(&cfg)
		tw.w.Rank(i).SetCommCore(cfg.CommCore)
		rt := New(cfg)
		rt.EnableTrace()
		tw.rts = append(tw.rts, rt)
	}
	var det *mpi.Detector
	if sc.detector {
		det = tw.w.StartHeartbeat()
	}
	for _, rt := range tw.rts {
		start(rt)
		if sc.pause.to != 0 {
			c.K.At(sim.Time(0).Add(sc.pause.from), rt.PauseWorkers)
		}
		if sc.pause.to > 0 {
			c.K.At(sim.Time(0).Add(sc.pause.to), rt.ResumeWorkers)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				out.panicked = fmt.Sprint(r)
			}
		}()
		out.result = sc.run(tw, det)
	}()
	for i, rt := range tw.rts {
		out.traces = append(out.traces, rt.TraceEvents())
		out.counters = append(out.counters, *c.Nodes[i].Counters)
	}
	out.solves, out.steps, out.end = c.Fluid.Solves(), c.K.Steps(), c.K.Now()
	c.K.Shutdown()
	return out
}

// twins runs sc with the continuation workers and thread and with the
// process reference, fails unless both observed exactly the same, and returns
// what they observed.
func twins(t *testing.T, sc twinScenario) twinRun {
	t.Helper()
	conts := runTwin(sc, (*Runtime).Start)
	procs := runTwin(sc, (*Runtime).startProcs)
	if conts.panicked != procs.panicked {
		t.Fatalf("%s: panic %q, process reference %q", sc.name, conts.panicked, procs.panicked)
	}
	if !reflect.DeepEqual(conts.result, procs.result) {
		t.Fatalf("%s: result %+v\nprocess reference %+v", sc.name, conts.result, procs.result)
	}
	for i := range conts.traces {
		if !reflect.DeepEqual(conts.traces[i], procs.traces[i]) {
			t.Fatalf("%s: node %d trace %+v\nprocess reference %+v", sc.name, i, conts.traces[i], procs.traces[i])
		}
	}
	if !reflect.DeepEqual(conts.counters, procs.counters) {
		t.Fatalf("%s: node counters %+v\nprocess reference %+v", sc.name, conts.counters, procs.counters)
	}
	if conts.solves != procs.solves || conts.steps != procs.steps || conts.end != procs.end {
		t.Fatalf("%s: %d events and %d solves to %v, process reference %d and %d to %v",
			sc.name, conts.steps, conts.solves, conts.end, procs.steps, procs.solves, procs.end)
	}
	return conts
}

// randSize draws a message size: eager (at most the NIC's eager
// threshold of 64 KiB on henri), the threshold's edges, or rendezvous.
func randSize(rng *rand.Rand) int64 {
	sizes := []int64{4, 1 << 10, 64 << 10, 64<<10 + 1, 256 << 10, 1 << 20}
	return sizes[rng.Intn(len(sizes))]
}

// randCfg draws the runtime knobs the comm path depends on: the
// communication core (and so its NUMA distance to the data), backoff
// and CommThrottle.
func randCfg(rng *rand.Rand) func(*Config) {
	commCore := 4 + rng.Intn(32)
	throttle := rng.Intn(3)
	backoff := []Backoff{{1, 2}, DefaultBackoff, {1, 10000}}[rng.Intn(3)]
	return func(cfg *Config) {
		cfg.CommCore, cfg.CommThrottle, cfg.Backoff = commCore, throttle, backoff
	}
}

// randSched draws a fault schedule for a world whose ranks do not
// watch a detector: none, a communication-thread hang, light loss, or
// a node down for a short window.
func randSched(rng *rand.Rand) string {
	at := 50 + rng.Intn(400)
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("hang:node=%d,at=%dus,for=%dus", rng.Intn(2), at, 10+rng.Intn(100))
	case 1:
		return "loss:p=0.1"
	case 2:
		return fmt.Sprintf("crash:node=%d,at=%dus,for=%dus", rng.Intn(2), at, 5+rng.Intn(100))
	}
	return ""
}

func pingPongTwin(rng *rand.Rand) twinScenario {
	pp := PingPong{Size: randSize(rng), Iters: 2 + rng.Intn(8), Warmup: rng.Intn(3)}
	dataNUMA := rng.Intn(4)
	return twinScenario{
		name: fmt.Sprintf("pingpong size=%d", pp.Size), nodes: 2, sched: randSched(rng), cfg: randCfg(rng), pause: randPause(rng, true),
		run: func(tw *twinWorld, _ *mpi.Detector) any {
			var lats []sim.Duration
			init, resp := pp, pp
			init.Buf = tw.c.Nodes[0].Alloc(max(pp.Size, 1), dataNUMA)
			resp.Buf = tw.c.Nodes[1].Alloc(max(pp.Size, 1), dataNUMA)
			tw.c.K.Spawn("init", func(p *sim.Proc) {
				lats = init.Initiate(p, tw.rts[0], 1)
				tw.rts[0].Shutdown()
				tw.rts[1].Shutdown()
			})
			tw.c.K.Spawn("resp", func(p *sim.Proc) { resp.Respond(p, tw.rts[1], 0) })
			tw.c.K.RunUntil(sim.Time(sim.Second))
			return lats
		},
	}
}

func appTwin(rng *rand.Rand) twinScenario {
	flops, bytes := float64(1+rng.Intn(20))*1e5, float64(rng.Intn(3))*1e5
	app := &App{
		Name:         "twin",
		Slice:        func(int) machine.ComputeSpec { return machine.ComputeSpec{Flops: flops, Bytes: bytes, MemNUMA: -1} },
		TasksPerIter: 1 + rng.Intn(6),
		Iterations:   1 + rng.Intn(4),
		MsgSize:      randSize(rng),
		MsgsPerIter:  1 + rng.Intn(3),
		HandleNUMA:   rng.Intn(4) - 1,
	}
	return twinScenario{
		name: fmt.Sprintf("app size=%d msgs=%d", app.MsgSize, app.MsgsPerIter), nodes: 2,
		sched: randSched(rng), cfg: randCfg(rng), pause: randPause(rng, false),
		run: func(tw *twinWorld, _ *mpi.Detector) any {
			return app.Run([2]*Runtime{tw.rts[0], tw.rts[1]})
		},
	}
}

func distTwin(rng *rand.Rand) twinScenario {
	nodes := 2 + rng.Intn(2)
	ntasks := 3 + rng.Intn(8)
	type step struct {
		h    []int
		mode []AccessMode
		exec int
	}
	nh := 1 + rng.Intn(3)
	owners, sizes := make([]int, nh), make([]int64, nh)
	for i := range owners {
		owners[i], sizes[i] = rng.Intn(nodes), randSize(rng)
	}
	var prog []step
	for i := 0; i < ntasks; i++ {
		var s step
		for h := 0; h < nh; h++ {
			if rng.Intn(2) == 0 {
				s.h = append(s.h, h)
				s.mode = append(s.mode, []AccessMode{R, W}[rng.Intn(2)])
			}
		}
		s.exec = rng.Intn(nodes+1) - 1
		prog = append(prog, s)
	}
	return twinScenario{
		name: fmt.Sprintf("dist nodes=%d tasks=%d", nodes, ntasks), nodes: nodes, cfg: randCfg(rng), pause: randPause(rng, false),
		run: func(tw *twinWorld, _ *mpi.Detector) any {
			done := make([]bool, nodes)
			for i, rt := range tw.rts {
				d := NewDistRuntime(rt, nodes)
				i := i
				tw.c.K.Spawn(fmt.Sprintf("prog.r%d", i), func(p *sim.Proc) {
					hs := make([]*DistHandle, nh)
					for h := range hs {
						hs[h] = d.RegisterData(owners[h], sizes[h], h%4)
					}
					for _, s := range prog {
						t := &DistTask{Spec: machine.ComputeSpec{Flops: 1e5, Class: topology.Scalar}, ExecRank: s.exec}
						for j, h := range s.h {
							t.Accesses = append(t.Accesses, DistAccess{hs[h], s.mode[j]})
						}
						d.Insert(p, t)
					}
					d.WaitAllDist(p)
					rt.Shutdown()
					done[i] = true
				})
			}
			tw.c.K.RunUntil(sim.Time(sim.Second))
			return done
		},
	}
}

func resilientTwin(rng *rand.Rand) twinScenario {
	node, at := rng.Intn(2), 50+rng.Intn(500)
	sched := fmt.Sprintf("crash:node=%d,at=%dus", node, at)
	if rng.Intn(2) == 0 {
		sched += fmt.Sprintf(",for=%dus", 20+rng.Intn(300))
	}
	app := &ResilientApp{
		Name:            "twin",
		Slice:           func(int) machine.ComputeSpec { return machine.ComputeSpec{Flops: 2e5, Bytes: 1e5, MemNUMA: -1} },
		TasksPerIter:    2 + rng.Intn(4),
		Iterations:      3 + rng.Intn(4),
		MsgSize:         randSize(rng),
		HandleNUMA:      -1,
		CheckpointEvery: 2,
		CheckpointBytes: 1 << 16,
	}
	return twinScenario{
		name: fmt.Sprintf("resilient %s size=%d", sched, app.MsgSize), nodes: 2, sched: sched,
		detector: true, cfg: randCfg(rng), pause: randPause(rng, false),
		run: func(tw *twinWorld, det *mpi.Detector) any {
			return app.Run(tw.rts, det)
		},
	}
}

// TestCommThreadMatchesProcessReference runs random ping-pong, App,
// DistRuntime and ResilientApp scenarios, with eager and rendezvous
// sizes, CommThrottle on and off, paused and resumed workers and fault
// schedules, through the continuation workers and thread and the
// process reference.
func TestCommThreadMatchesProcessReference(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(47))
	kinds := []func(*rand.Rand) twinScenario{pingPongTwin, appTwin, distTwin, resilientTwin}
	requests, tasks, panics := 0, 0, 0
	for i := 0; i < trials; i++ {
		seed := rng.Int63()
		sc := kinds[i%len(kinds)](rand.New(rand.NewSource(seed)))
		got := twins(t, sc)
		if got.panicked != "" {
			panics++
		}
		for _, tr := range got.traces {
			for _, e := range tr {
				switch e.Kind {
				case "comm":
					requests++
				case "task":
					tasks++
				}
			}
		}
	}
	if requests < 10*trials || tasks < 10*trials {
		t.Fatalf("%d trials completed only %d requests and %d tasks", trials, requests, tasks)
	}
	t.Logf("%d trials, %d requests, %d tasks, %d panics", trials, requests, tasks, panics)
}
