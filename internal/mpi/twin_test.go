package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The protocol's tests run every scenario twice: once with its ranks as
// processes over Send, Recv, SendFT and RecvFT, and once as chains of
// StartSend and StartRecv (or, for the plain operations, the same
// engine without a detector) started from events. Both forms run one
// engine, so they must agree on everything a measurement can read:
// the instant each operation ends, the errors, every node counter
// (faults included), the fluid solves and the kernel's event count
// (see twins).

// actKind is what one step of a rank script does.
type actKind int

const (
	actSend actKind = iota
	actRecv
	actSleep
	actCall
)

// act is one step of a rank script: a send or a receive (ft: the
// fault-tolerant operation, which watches the world's detector), a
// sleep, or a call of fn, which must not block.
type act struct {
	kind      actKind
	r         *Rank
	peer, tag int
	buf       *machine.Buffer
	size      int64
	ft        bool
	d         sim.Duration
	fn        func()
}

func sendAct(r *Rank, dst, tag int, buf *machine.Buffer, size int64) act {
	return act{kind: actSend, r: r, peer: dst, tag: tag, buf: buf, size: size}
}

func recvAct(r *Rank, src, tag int, buf *machine.Buffer, size int64) act {
	return act{kind: actRecv, r: r, peer: src, tag: tag, buf: buf, size: size}
}

func sendFTAct(r *Rank, dst, tag int, buf *machine.Buffer, size int64) act {
	a := sendAct(r, dst, tag, buf, size)
	a.ft = true
	return a
}

func recvFTAct(r *Rank, src, tag int, buf *machine.Buffer, size int64) act {
	a := recvAct(r, src, tag, buf, size)
	a.ft = true
	return a
}

func sleepAct(d sim.Duration) act { return act{kind: actSleep, d: d} }

func callAct(fn func()) act { return act{kind: actCall, fn: fn} }

// script is one rank's program: acts, run times times over (forever
// when times is negative), until an operation fails; then, whether it
// failed or not, finally.
type script struct {
	acts    []act
	times   int
	finally func()
}

// once returns a script that runs acts once.
func once(acts ...act) script { return script{acts: acts, times: 1} }

// outcome is what a script observed: the instant each act it ran
// ended, the act that failed (-1: none) and its error.
type outcome struct {
	ends   []sim.Time
	failed int
	err    string
}

// observed is what a run of a scenario observed.
type observed struct {
	scripts  []outcome
	counters []counters.Set
	solves   uint64
	steps    uint64
	end      sim.Time
}

// scenario builds a world and its rank scripts. It is called once per
// form, so everything it observes through call acts must be made in it.
type scenario func() (*machine.Cluster, *World, []script)

// asProcs runs a scenario's scripts as processes.
func asProcs(s scenario) observed {
	c, _, scripts := s()
	outs := spawnScripts(c, scripts)
	c.K.Run()
	return observe(c, outs)
}

// spawnScripts spawns scripts as processes, in order, and returns
// where they record their outcomes.
func spawnScripts(c *machine.Cluster, scripts []script) []outcome {
	outs := make([]outcome, len(scripts))
	for i, sc := range scripts {
		out := &outs[i]
		out.failed = -1
		c.K.Spawn(fmt.Sprintf("script%d", i), func(p *sim.Proc) {
			defer func() {
				if sc.finally != nil {
					sc.finally()
				}
			}()
			for n := 0; sc.times < 0 || n < sc.times; n++ {
				for _, a := range sc.acts {
					var err error
					switch a.kind {
					case actSend:
						if a.ft {
							err = a.r.SendFT(p, a.peer, a.tag, a.buf, a.size)
						} else {
							a.r.Send(p, a.peer, a.tag, a.buf, a.size)
						}
					case actRecv:
						if a.ft {
							err = a.r.RecvFT(p, a.peer, a.tag, a.buf, a.size)
						} else {
							a.r.Recv(p, a.peer, a.tag, a.buf, a.size)
						}
					case actSleep:
						p.Sleep(a.d)
					case actCall:
						a.fn()
					}
					out.ends = append(out.ends, p.Now())
					if err != nil {
						out.failed, out.err = len(out.ends)-1, err.Error()
						return
					}
				}
			}
		})
	}
	return outs
}

// chain is a script run as a chain of continuations.
type chain struct {
	k    *sim.Kernel
	sc   script
	out  *outcome
	n, i int
	cont sim.Cont // ends a sleep
	then func(error)
}

// asEvents runs a scenario's scripts as chains of operations, each
// started from an event in the slot its process would take.
func asEvents(s scenario) observed {
	c, _, scripts := s()
	outs := startChains(c, scripts)
	c.K.Run()
	return observe(c, outs)
}

// startChains starts scripts as chains, in order, each from an event
// of this instant, and returns where they record their outcomes.
func startChains(c *machine.Cluster, scripts []script) []outcome {
	outs := make([]outcome, len(scripts))
	for i, sc := range scripts {
		x := &chain{k: c.K, sc: sc, out: &outs[i]}
		x.out.failed = -1
		x.then = x.ended
		x.cont = sim.MakeCont(func() { x.ended(nil) })
		c.K.At(c.K.Now(), x.next)
	}
	return outs
}

// next runs the script's next act.
func (x *chain) next() {
	if x.i == len(x.sc.acts) {
		x.i = 0
		x.n++
	}
	if x.sc.times >= 0 && x.n >= x.sc.times || len(x.sc.acts) == 0 {
		if x.sc.finally != nil {
			x.sc.finally()
		}
		return
	}
	a := x.sc.acts[x.i]
	x.i++
	switch a.kind {
	case actSend:
		if a.ft {
			a.r.StartSend(a.peer, a.tag, a.buf, a.size, x.then)
		} else {
			a.r.newOp(true, a.peer, a.tag, a.buf, a.size, nil).start(x.then)
		}
	case actRecv:
		if a.ft {
			a.r.StartRecv(a.peer, a.tag, a.buf, a.size, x.then)
		} else {
			a.r.newOp(false, a.peer, a.tag, a.buf, a.size, nil).start(x.then)
		}
	case actSleep:
		x.k.SleepCont(&x.cont, a.d)
	case actCall:
		a.fn()
		x.ended(nil)
	}
}

// ended records the end of an operation or call and goes on, or stops
// the script at a failure.
func (x *chain) ended(err error) {
	x.out.ends = append(x.out.ends, x.k.Now())
	if err != nil {
		if !x.sc.acts[x.i-1].ft {
			panic(err)
		}
		x.out.failed, x.out.err = len(x.out.ends)-1, err.Error()
		if x.sc.finally != nil {
			x.sc.finally()
		}
		return
	}
	x.next()
}

// observe collects what a finished run observed, and stops the
// processes still blocked in it.
func observe(c *machine.Cluster, outs []outcome) observed {
	o := observed{scripts: outs, solves: c.Fluid.Solves(), steps: c.K.Steps(), end: c.K.Now()}
	for _, n := range c.Nodes {
		o.counters = append(o.counters, *n.Counters)
	}
	c.K.Shutdown()
	return o
}

// twins runs s as processes and as event chains, fails unless both
// observed exactly the same, and returns what they observed.
func twins(t *testing.T, s scenario) observed {
	t.Helper()
	procs, events := asProcs(s), asEvents(s)
	for i := range procs.scripts {
		if !reflect.DeepEqual(procs.scripts[i], events.scripts[i]) {
			t.Fatalf("script %d from events: %+v\nfrom a process: %+v", i, events.scripts[i], procs.scripts[i])
		}
	}
	if !reflect.DeepEqual(procs.counters, events.counters) {
		t.Fatalf("node counters from events %+v\nfrom processes %+v", events.counters, procs.counters)
	}
	if procs.solves != events.solves || procs.steps != events.steps || procs.end != events.end {
		t.Fatalf("events ran %d events and %d solves to %v, processes %d and %d to %v",
			events.steps, events.solves, events.end, procs.steps, procs.solves, procs.end)
	}
	return procs
}

// pingPongScripts are PingPong.Start's two ranks as scripts: the
// initiator on rank 0 and the responder on rank 1, each marking its
// communication core active for its part. The initiator's outcome ends
// hold, after the SetActive call, each send's and receive's end.
func pingPongScripts(w *World, pp *PingPong) []script {
	side := func(i int, buf *machine.Buffer) (*Rank, *machine.Buffer, act, act) {
		r := w.Rank(i)
		if buf == nil {
			buf = r.Node.Alloc(max(pp.Size, 1), r.Node.Spec.NIC.NUMA)
		}
		return r, buf, callAct(func() { r.Node.Freq.SetActive(r.CommCore, topology.Scalar) }), callAct(func() { r.Node.Freq.SetIdle(r.CommCore) })
	}
	a, abuf, aOn, aOff := side(0, pp.InitBuf)
	b, bbuf, bOn, bOff := side(1, pp.RespBuf)
	n := pp.Warmup + pp.Iters
	init, resp := []act{aOn}, []act{bOn}
	for i := 0; i < n; i++ {
		init = append(init, sendAct(a, 1, pingTag, abuf, pp.Size), recvAct(a, 1, pingTag+1, abuf, pp.Size))
		resp = append(resp, recvAct(b, 0, pingTag, bbuf, pp.Size), sendAct(b, 0, pingTag+1, bbuf, pp.Size))
	}
	return []script{once(append(init, aOff)...), once(append(resp, bOff)...)}
}

// pingPongLats returns the initiator's measured half-round-trip
// latencies from the outcome of pingPongScripts' first script.
func pingPongLats(pp *PingPong, init outcome) []sim.Duration {
	var lats []sim.Duration
	for i := pp.Warmup; i < pp.Warmup+pp.Iters; i++ {
		start := init.ends[2*i] // the SetActive call, or the previous receive
		lats = append(lats, init.ends[2*i+2].Sub(start)/2)
	}
	return lats
}

// runPingPongTwins runs pp in the world build returns as twin scripts, and
// through PingPong.Start in a third world, which must observe the same:
// latencies, counters, solves and events. It returns the latencies and
// what the scripts observed.
func runPingPongTwins(t *testing.T, build func() (*machine.Cluster, *World), pp *PingPong) ([]sim.Duration, observed) {
	t.Helper()
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := build()
		return c, w, pingPongScripts(w, pp)
	})
	want := pingPongLats(pp, o.scripts[0])
	c, w := build()
	var lats []sim.Duration
	pp.Start(w, 0, func(l []sim.Duration) { lats = l })
	c.K.Run()
	got := observe(c, nil)
	if !reflect.DeepEqual(lats, want) {
		t.Fatalf("PingPong.Start latencies %v, scripted %v", lats, want)
	}
	if !reflect.DeepEqual(got.counters, o.counters) || got.solves != o.solves || got.steps != o.steps || got.end != o.end {
		t.Fatalf("PingPong.Start ran %d events and %d solves to %v, scripted %d and %d to %v; or counters differ",
			got.steps, got.solves, got.end, o.steps, o.solves, o.end)
	}
	return lats, o
}
