package bench

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// This file implements the `faults-crash` experiment family: the
// fault-tolerant communication and task-runtime stack exercised under
// injected node crashes — ping-pong against a peer that dies mid-run
// (failure detection latency, clean ErrPeerDead surfacing), and a
// resilient distributed CG whose checkpoint/rollback recovery converges
// to the exact same residual as the healthy run.

// cgMath is a host-side conjugate-gradient solve on a small SPD
// tridiagonal system. The simulated tasks model the cost of the solver;
// this mirrors its numerics so the experiment can assert bit-identical
// convergence across healthy and crash-recovered executions: each
// completed simulated iteration applies one CG step, checkpoints deep-
// copy the state, and rollbacks restore it, so a replayed iteration
// redoes the exact same float arithmetic.
type cgMath struct {
	n       int
	x, r, p []float64
	rsold   float64
	steps   int
}

// newCGMath builds the system A x = b with A tridiagonal (2.001 on the
// diagonal, -1 off it — strictly diagonally dominant, hence SPD) and
// b = ones, starting from x = 0.
func newCGMath(n int) *cgMath {
	m := &cgMath{n: n, x: make([]float64, n), r: make([]float64, n), p: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.r[i] = 1 // r = b - A*0 = b
		m.p[i] = 1
	}
	m.rsold = float64(n)
	return m
}

// matvec computes A*v for the tridiagonal system.
func (m *cgMath) matvec(v []float64) []float64 {
	out := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		s := 2.001 * v[i]
		if i > 0 {
			s -= v[i-1]
		}
		if i < m.n-1 {
			s -= v[i+1]
		}
		out[i] = s
	}
	return out
}

// step applies one CG iteration.
func (m *cgMath) step() {
	ap := m.matvec(m.p)
	var pap float64
	for i := 0; i < m.n; i++ {
		pap += m.p[i] * ap[i]
	}
	alpha := m.rsold / pap
	var rsnew float64
	for i := 0; i < m.n; i++ {
		m.x[i] += alpha * m.p[i]
		m.r[i] -= alpha * ap[i]
		rsnew += m.r[i] * m.r[i]
	}
	beta := rsnew / m.rsold
	for i := 0; i < m.n; i++ {
		m.p[i] = m.r[i] + beta*m.p[i]
	}
	m.rsold = rsnew
	m.steps++
}

// resid returns the residual 2-norm.
func (m *cgMath) resid() float64 { return math.Sqrt(m.rsold) }

// clone deep-copies the solver state (a checkpoint).
func (m *cgMath) clone() *cgMath {
	c := &cgMath{n: m.n, rsold: m.rsold, steps: m.steps}
	c.x = append([]float64(nil), m.x...)
	c.r = append([]float64(nil), m.r...)
	c.p = append([]float64(nil), m.p...)
	return c
}

// restore rewinds the solver to a checkpoint.
func (m *cgMath) restore(c *cgMath) {
	copy(m.x, c.x)
	copy(m.r, c.r)
	copy(m.p, c.p)
	m.rsold = c.rsold
	m.steps = c.steps
}

// crashSchedule builds a permanent single-node crash at the given
// instant.
func crashSchedule(node int, at sim.Duration) *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.NodeCrash, Node: node, From: -1, To: -1, At: at},
	}}
}

// runCrashPingPong runs a fault-tolerant 4-byte ping-pong under the
// given schedule: the initiator measures per-iteration latency until it
// either completes or its peer is declared dead.
func runCrashPingPong(env Env, sched *fault.Schedule) (iters int, detectedUs float64, latUs float64, status string) {
	fenv := env
	fenv.Faults = sched
	c, w := newWorld(fenv, 2, fenv.Seed)
	var det *mpi.Detector
	if sched.Crashy() {
		det = w.StartHeartbeat(mpi.DefaultHeartbeat())
	}
	r0, r1 := w.Rank(0), w.Rank(1)
	x := &crashPingPong{w: w, det: det, status: "completed",
		initBuf: r0.Node.Alloc(crashSize, r0.Node.Spec.NIC.NUMA),
		respBuf: r1.Node.Alloc(crashSize, r1.Node.Spec.NIC.NUMA)}
	x.initSentFn, x.initRecvdFn = x.initSent, x.initRecvd
	x.respRecvdFn, x.respSentFn = x.respRecvd, x.respSent
	c.K.At(c.K.Now(), x.initNext)
	c.K.At(c.K.Now(), x.respNext)
	c.K.Run()
	iters, status = x.iters, x.status
	if status == "completed" && x.respErr != nil {
		status = "responder: " + x.respErr.Error()
	}
	if det != nil && det.Dead(1) {
		detectedUs = sim.Duration(det.DeadAt(1)).Seconds() * 1e6
	}
	latUs = stats.Summarize(x.lats).Median * 1e6
	return iters, detectedUs, latUs, status
}

// crashPingPong is runCrashPingPong's ping-pong: each rank a chain of
// fault-tolerant operations (mpi.Rank.StartSend and StartRecv) that
// stops at its first error. Unlike mpi.PingPong it never marks the
// communication cores active.
type crashPingPong struct {
	w                *mpi.World
	det              *mpi.Detector
	initBuf, respBuf *machine.Buffer
	// iters counts the initiator's completed round trips, t0 is the
	// start of the current one, and respI the responder's iterations.
	iters, respI int
	t0           sim.Time
	lats         []float64
	status       string
	respErr      error
	// The chains' callbacks, bound once.
	initSentFn, initRecvdFn func(error)
	respRecvdFn, respSentFn func(error)
}

const crashSize, crashTag, crashIters = 4, 7000, 4000

// initNext starts the initiator's next round trip, or stops.
func (x *crashPingPong) initNext() {
	r := x.w.Rank(0)
	if x.iters == crashIters {
		x.initEnd()
		return
	}
	x.t0 = r.Node.K().Now()
	r.StartSend(1, crashTag, x.initBuf, crashSize, x.initSentFn)
}

func (x *crashPingPong) initSent(err error) {
	if err != nil {
		x.status = err.Error()
		x.initEnd()
		return
	}
	x.w.Rank(0).StartRecv(1, crashTag+1, x.initBuf, crashSize, x.initRecvdFn)
}

func (x *crashPingPong) initRecvd(err error) {
	if err != nil {
		x.status = err.Error()
		x.initEnd()
		return
	}
	x.iters++
	x.lats = append(x.lats, x.w.Rank(0).Node.K().Now().Sub(x.t0).Seconds()/2)
	x.initNext()
}

func (x *crashPingPong) initEnd() {
	if x.det != nil {
		x.det.Stop()
	}
}

// respNext waits for the next ping, or stops.
func (x *crashPingPong) respNext() {
	r := x.w.Rank(1)
	if x.respI == crashIters || x.respErr != nil {
		// The initiator now waits on a responder that is gone for good:
		// stop the detector so the world drains.
		if x.respErr != nil && x.det != nil {
			x.det.Stop()
		}
		return
	}
	r.StartRecv(0, crashTag, x.respBuf, crashSize, x.respRecvdFn)
}

func (x *crashPingPong) respRecvd(err error) {
	if x.respErr = err; err == nil {
		x.w.Rank(1).StartSend(0, crashTag+1, x.respBuf, crashSize, x.respSentFn)
		return
	}
	x.respSent(err)
}

func (x *crashPingPong) respSent(err error) {
	x.respErr = err
	x.respI++
	x.respNext()
}

// crashPingPongRun is the outcome of one CrashPingPong scenario.
type crashPingPongRun struct {
	Iters                 int
	DetectedUs, LatencyUs float64
	Status                string
}

// CrashPingPong reports the fault-tolerant ping-pong under peer death:
// how many iterations complete before the crash, when the failure
// detector declares the death, and how the operation surfaces it. Each
// scenario is one point.
func CrashPingPong(env Env) *trace.Table {
	t := trace.NewTable("FAULTS — ping-pong under peer node crash (heartbeat detection, ErrPeerDead)",
		"scenario", "iters_done", "crash_at_us", "detected_us", "latency_us", "status")
	type sc struct {
		name    string
		sched   *fault.Schedule
		crashUs float64
	}
	scenarios := []sc{
		{"none", nil, 0},
		{"crash-n1@1ms", crashSchedule(1, sim.Millisecond), 1000},
		{"crash-n1@3ms", crashSchedule(1, 3*sim.Millisecond), 3000},
	}
	if env.Faults != nil {
		scenarios = []sc{{"custom", env.Faults, 0}}
	}
	pts := make([]Point, len(scenarios))
	for i, s := range scenarios {
		sched := s.sched
		pts[i] = Point{Key: "faults-crash-pingpong/" + s.name, Fn: func(env Env) any {
			iters, detUs, latUs, status := runCrashPingPong(env, sched)
			return crashPingPongRun{Iters: iters, DetectedUs: detUs, LatencyUs: latUs, Status: status}
		}}
	}
	for i, r := range RunPointsAs[crashPingPongRun](env, pts) {
		s := scenarios[i]
		t.Add(s.name, float64(r.Iters), s.crashUs, r.DetectedUs, r.LatencyUs, r.Status)
	}
	return t
}

// runCrashCG runs the resilient distributed CG once under the given
// schedule and returns the run statistics plus the final residual,
// pre-formatted to full precision so the goldens can assert the healthy
// and crash-recovered runs converge to the byte-identical value.
func runCrashCG(env Env, sched *fault.Schedule) (taskrt.ResilientStats, string) {
	fenv := env
	fenv.Faults = sched
	_, w, rts := starpuPair(fenv, fenv.Seed, -1, []int{1, 2}, taskrt.DefaultBackoff)
	det := w.StartHeartbeat(mpi.DefaultHeartbeat())
	cg := newCGMath(64)
	snaps := map[int]*cgMath{-1: cg.clone()}
	app := &taskrt.ResilientApp{
		Name:            "cg",
		Slice:           func(i int) machine.ComputeSpec { return kernels.CGBlock(512, 512, -1) },
		TasksPerIter:    8,
		Iterations:      12,
		MsgSize:         256 << 10,
		HandleNUMA:      -1,
		CheckpointEvery: 3,
		CheckpointBytes: 1 << 20,
		OnIteration:     func(int) { cg.step() },
		OnCheckpoint:    func(it int) { snaps[it] = cg.clone() },
		OnRollback:      func(ckpt int) { cg.restore(snaps[ckpt]) },
	}
	st := app.Run(rts[:], det)
	return st, fmt.Sprintf("%.10e", cg.resid())
}

// crashCGRun is the outcome of one CrashCG scenario.
type crashCGRun struct {
	Stats    taskrt.ResilientStats
	Residual string
}

// crashCGPoint runs the resilient CG under sched as the point named.
func crashCGPoint(name string, sched *fault.Schedule) Point {
	return Point{Key: "faults-crash-cg/" + name, Fn: func(env Env) any {
		st, resid := runCrashCG(env, sched)
		return crashCGRun{Stats: st, Residual: resid}
	}}
}

// CrashCG reports the resilient distributed CG surviving a mid-run node
// crash: the survivors detect the death, shrink the ring, roll back to
// the last checkpoint, re-execute the dead rank's tasks, and converge
// to the exact residual of the healthy run — at the cost of the listed
// recovery time.
func CrashCG(env Env) *trace.Table {
	t := trace.NewTable("FAULTS — resilient CG under node crash (lineage re-execution + checkpoint rollback)",
		"scenario", "iters", "residual", "crashes", "reexec_tasks", "rollback_iters", "checkpoints", "recovery_ms", "elapsed_ms", "survivors")
	add := func(name string, r crashCGRun) {
		st := r.Stats
		t.Add(name, float64(st.CompletedIters), r.Residual, float64(st.Crashes),
			st.TasksReexec, st.RollbackIters, st.Checkpoints,
			st.RecoverySecs*1e3, st.Elapsed.Seconds()*1e3, float64(st.Survivors))
	}
	if env.Faults != nil {
		runs := RunPointsAs[crashCGRun](env, []Point{crashCGPoint("healthy", nil), crashCGPoint("custom", env.Faults)})
		add("healthy", runs[0])
		add("custom", runs[1])
		return t
	}
	healthy := RunPointsAs[crashCGRun](env, []Point{crashCGPoint("healthy", nil)})[0]
	add("healthy", healthy)
	// Crash node 1 at 40% of the healthy runtime — deterministically
	// mid-run whatever the cluster spec. The key names the fraction, not
	// the instant: the base key already fixes the healthy run.
	crashAt := sim.DurationOfSeconds(healthy.Stats.Elapsed.Seconds() * 0.4)
	crashed := RunPointsAs[crashCGRun](env, []Point{crashCGPoint("crash-n1@40pct", crashSchedule(1, crashAt))})[0]
	add(fmt.Sprintf("crash-n1@%.0fus", crashAt.Seconds()*1e6), crashed)
	return t
}
