package taskrt

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// pollSpell is one stretch of a worker's polling traffic, from the
// start of its poll flow to its stop.
type pollSpell struct {
	flow       machine.Background
	start, end sim.Time
	// from, to count the tasks pushed onto the runtime before the
	// flow started and before it stopped.
	from, to int
	held     bool // it stopped because the worker must block
}

// pollWatch follows every worker's poll flow after every kernel event.
type pollWatch struct {
	t      *testing.T
	rt     *Runtime
	pushes int           // tasks pushed so far (kept by the test's main thread)
	open   []*pollSpell  // per worker: the running spell, or nil
	spells [][]pollSpell // per worker: the finished spells
}

func newPollWatch(t *testing.T, rt *Runtime) *pollWatch {
	return &pollWatch{t: t, rt: rt, open: make([]*pollSpell, len(rt.workers)), spells: make([][]pollSpell, len(rt.workers))}
}

// check runs after each event: a running poll flow stays the same flow
// until it stops.
func (pw *pollWatch) check(now sim.Time) {
	for i := range pw.rt.workers {
		w := &pw.rt.workers[i]
		sp := pw.open[i]
		switch {
		case sp == nil && w.polling.Running():
			pw.open[i] = &pollSpell{flow: w.polling, start: now, from: pw.pushes}
		case sp != nil && !w.polling.Running():
			sp.end, sp.to, sp.held = now, pw.pushes, w.held()
			pw.spells[i] = append(pw.spells[i], *sp)
			pw.open[i] = nil
		case sp != nil && w.polling != sp.flow:
			pw.t.Errorf("worker %d: poll flow replaced at %v while it polled since %v", i, now, sp.start)
			sp.flow = w.polling
		}
	}
}

// polling reports how many of the runtime's workers have a poll flow.
func polling(rt *Runtime) int {
	n := 0
	for i := range rt.workers {
		if rt.workers[i].polling.Running() {
			n++
		}
	}
	return n
}

// TestIdleWorkersKeepPolling drives the idle protocol through a herd of
// pushes, a pause, a communication throttle and a shutdown, checking
// after every kernel event that an idle worker keeps one poll flow from
// going idle until it wins a task or must block (§5.4: losers keep
// busy-waiting on the queue), and that a worker that wins, is paused,
// is throttled or is shut down has no poll flow once it leaves the
// idle protocol.
func TestIdleWorkersKeepPolling(t *testing.T) {
	const nworkers, herd = 8, 20
	workers := make([]int, nworkers)
	for i := range workers {
		workers[i] = 1 + i
	}
	c, _, rts := starpuPair(t, noNoise(), DefaultBackoff, workers)
	rt := rts[0]
	rt.cfg.CommThrottle = nworkers
	rt.EnableTrace()
	pw := newPollWatch(t, rt)
	spec := machine.ComputeSpec{Flops: 1e6, Class: topology.Scalar}
	settle := 20 * sim.Microsecond // a few poll periods
	expect := func(p *sim.Proc, what string, want int) {
		p.Sleep(settle)
		if got := polling(rt); got != want {
			t.Errorf("%s: %d of %d workers poll, want %d", what, got, nworkers, want)
		}
	}
	c.K.Spawn("main0", func(p *sim.Proc) {
		for i := 0; i < herd; i++ {
			task := NewTask(spec)
			rt.Submit(p, task)
			pw.pushes++
			rt.WaitTask(p, task)
		}
		expect(p, "after the herd", nworkers)
		rt.PauseWorkers()
		expect(p, "paused", 0)
		rt.ResumeWorkers()
		expect(p, "resumed", nworkers)
		// A push while a request is in flight wakes the herd into the
		// throttle: every worker parks, and none polls.
		buf := rt.Node().Alloc(16<<20, 0)
		h := rt.PostSend(p, 1, 5, buf, 16<<20)
		task := NewTask(spec)
		rt.Submit(p, task)
		pw.pushes++
		expect(p, "throttled", 0)
		if err := h.Wait(p); err != nil {
			t.Error(err)
		}
		rt.WaitTask(p, task)
		expect(p, "after the throttle", nworkers)
		rts[0].Shutdown()
		rts[1].Shutdown()
	})
	c.K.Spawn("main1", func(p *sim.Proc) {
		buf := rts[1].Node().Alloc(16<<20, 0)
		if err := rts[1].PostRecv(p, 0, 5, buf, 16<<20).Wait(p); err != nil {
			t.Error(err)
		}
	})
	for c.K.Step() {
		pw.check(c.K.Now())
	}
	if n := polling(rt) + polling(rts[1]); n != 0 || c.Fluid.FlowCount() != 0 {
		t.Fatalf("after shutdown: %d workers poll, %d flows left", n, c.Fluid.FlowCount())
	}

	// Every spell that did not end in a block ended in a win: its
	// worker starts a task before it polls again. No spell overlaps a
	// task of its worker.
	tasks := map[int][]ExecEvent{}
	for _, e := range rt.TraceEvents() {
		tasks[e.Core] = append(tasks[e.Core], e)
	}
	won, kept := 0, 0
	for i, spells := range pw.spells {
		core := rt.cfg.WorkerCores[i]
		for j, sp := range spells {
			next := sim.Time(1<<63 - 1)
			if j+1 < len(spells) {
				next = spells[j+1].start
			}
			ran := false
			for _, e := range tasks[core] {
				if e.Start < sp.end && e.End > sp.start {
					t.Errorf("worker %d polled over [%v, %v] while running a task over [%v, %v]",
						i, sp.start, sp.end, e.Start, e.End)
				}
				ran = ran || (e.Start >= sp.end && e.Start < next)
			}
			if sp.to-sp.from > 1 {
				kept++
			}
			if sp.held {
				continue
			}
			won++
			if !ran {
				t.Errorf("worker %d stopped polling at %v, neither holding a task nor blocked", i, sp.end)
			}
		}
	}
	if won != herd {
		t.Errorf("%d of the herd's %d tasks won by a polling worker", won, herd)
	}
	if kept == 0 {
		t.Error("no worker kept its poll flow across a lost push")
	}
}
