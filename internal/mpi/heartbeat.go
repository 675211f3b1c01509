package mpi

import "repro/internal/sim"

// This file implements the sim-time heartbeat failure detector: every
// rank's monitor probes its peers' liveness each probePeriod and
// declares a peer dead once it has been unresponsive for probeTimeout
// (the suspicion timeout). Semantics follow ULFM: survivors observe the
// failure, the active communicator shrinks (AliveRanks), and the
// fault-tolerant point-to-point operations (StartSend/StartRecv)
// surface ErrPeerDead instead of hanging forever. Once declared dead a rank
// stays dead even if its node later recovers — rejoining a shrunken
// communicator is out of scope, as in ULFM.
//
// There is one point-to-point protocol (op.go): StartSend and
// StartRecv hand it the world's detector, Send and Recv hand it nil. A
// nil *Detector is a detector that never declares a death — Dead
// reports false and Watch does nothing — so the protocol's waits need
// no separate healthy path.
//
// A probe reads the fault injector's crash ground truth instead of
// exchanging heartbeat messages, which would perturb the measured
// traffic. One timer runs every live monitor's probe, in rank order, on
// the grid t0 + k·probePeriod from the arm instant t0, but only while
// the node of an undeclared rank is down and some monitor probes; a
// crash wakes it (WatchCrash), and the ticks it skipped saw every
// undeclared rank up. So an armed detector lets its world drain.
// DESIGN.md §7 gives the tie rule.

// The probe period and the suspicion timeout.
const (
	probePeriod  = 50 * sim.Microsecond
	probeTimeout = 200 * sim.Microsecond
)

// Detector is the world-wide failure detector state: which ranks are
// still members of the (shrinking) communicator, and when each death
// was declared.
type Detector struct {
	w       *World
	t0      sim.Time // the arm instant
	alive   []bool
	deadAt  []sim.Time
	stopped bool
	watch   []*sim.Signal
	onDeath []func(rank int)
	// probing[i] is false once rank i's monitor found its own node
	// down, and lastSeen[i] is the last tick that saw rank i up. tick
	// runs the probes; crash, watched on the injector, runs wake.
	probing  []bool
	lastSeen []sim.Time
	tick     *sim.Timer
	crash    *sim.Signal
	wake     sim.Cont
}

// StartHeartbeat arms the failure detector. Idempotent — a second call
// returns the existing detector. On a world whose schedule never
// crashes a node it schedules nothing.
func (w *World) StartHeartbeat() *Detector {
	if w.det != nil {
		return w.det
	}
	d := newDetector(w)
	w.det = d
	if inj := w.inj; inj != nil {
		d.tick, d.crash = w.cluster.K.NewTimer(d.probe), sim.NewSignal(w.cluster.K)
		d.wake = sim.MakeCont(d.woken)
		inj.WatchCrash(d.crash)
		d.crash.WaitCont(&d.wake)
		if d.suspect() {
			d.tick.Arm(d.t0)
		}
	}
	return d
}

// newDetector returns w's detector state armed now: every rank alive.
func newDetector(w *World) *Detector {
	n := len(w.ranks)
	d := &Detector{w: w, t0: w.cluster.K.Now(), alive: make([]bool, n), deadAt: make([]sim.Time, n),
		probing: make([]bool, n), lastSeen: make([]sim.Time, n)}
	for i := range d.alive {
		d.alive[i], d.deadAt[i], d.probing[i], d.lastSeen[i] = true, -1, true, d.t0
	}
	return d
}

// Detector returns the world's failure detector, or nil when
// StartHeartbeat was never called.
func (w *World) Detector() *Detector { return w.det }

// down reports whether rank i's node is crashed.
func (d *Detector) down(i int) bool {
	inj := d.w.inj
	return inj != nil && inj.Crashed(d.w.ranks[i].Node.ID)
}

// probe is one tick: every live monitor, in rank order, probes its
// peers (declaring nothing once stopped).
func (d *Detector) probe() {
	now := d.w.cluster.K.Now()
	for self := range d.probing {
		if !d.probing[self] || d.down(self) {
			d.probing[self] = false // a crashed node's own monitor dies with it
			continue
		}
		for peer := range d.alive {
			if peer == self || !d.alive[peer] {
				continue
			}
			if !d.down(peer) {
				d.lastSeen[peer] = now
			} else if now.Sub(d.lastSeen[peer]) >= probeTimeout {
				d.declareDead(peer)
			}
		}
	}
	if d.suspect() {
		d.tick.Arm(now.Add(probePeriod))
	}
}

// suspect reports whether a probe can still declare a death: the node
// of a rank not yet declared dead is down, and some monitor probes.
func (d *Detector) suspect() bool {
	down, probing := false, false
	for i, a := range d.alive {
		down = down || a && d.down(i)
		probing = probing || d.probing[i]
	}
	return !d.stopped && down && probing
}

// woken runs on every crash and recovery: an idle detector with a
// suspect counts the ticks it skipped as sightings and probes again.
func (d *Detector) woken() {
	d.crash.WaitCont(&d.wake)
	if d.tick.Pending() || !d.suspect() {
		return
	}
	late := d.w.cluster.K.Now().Sub(d.t0)
	next := d.t0.Add((late + probePeriod - 1) / probePeriod * probePeriod)
	for i := range d.lastSeen {
		d.lastSeen[i] = max(d.lastSeen[i], next.Add(-probePeriod))
	}
	d.tick.Arm(next)
}

// declareDead marks a rank dead exactly once: survivors' PeerDeaths
// counters bump, registered death callbacks fire, and watched signals
// are broadcast so blocked fault-tolerant operations re-check liveness.
// Runs in the event of the detecting probe.
func (d *Detector) declareDead(rank int) {
	if d.stopped || !d.alive[rank] {
		return
	}
	d.alive[rank] = false
	d.deadAt[rank] = d.w.cluster.K.Now()
	for i, a := range d.alive {
		if a && !d.down(i) {
			d.w.ranks[i].Node.Counters.PeerDeaths++
		}
	}
	for _, fn := range d.onDeath {
		fn(rank)
	}
	for _, s := range d.watch {
		s.Broadcast()
	}
}

// Dead reports whether a rank has been declared dead; always false on
// a nil detector.
func (d *Detector) Dead(rank int) bool {
	return d != nil && rank >= 0 && rank < len(d.alive) && !d.alive[rank]
}

// DeadAt returns the declaration instant of a dead rank, -1 otherwise.
func (d *Detector) DeadAt(rank int) sim.Time {
	if !d.Dead(rank) {
		return -1
	}
	return d.deadAt[rank]
}

// AliveRanks returns the current members of the shrunken communicator,
// in rank order.
func (d *Detector) AliveRanks() []int {
	var out []int
	for i, a := range d.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// OnDeath registers a callback run (once, in event context) when a rank
// is declared dead. Callbacks must not block.
func (d *Detector) OnDeath(fn func(rank int)) {
	d.onDeath = append(d.onDeath, fn)
}

// Watch registers a signal to be broadcast on every death declaration,
// so an operation blocked on a protocol signal a dead peer will never
// fire wakes up and re-checks Dead. Unregister it with Unwatch. On a
// nil detector it registers nothing.
func (d *Detector) Watch(s *sim.Signal) {
	if d != nil {
		d.watch = append(d.watch, s)
	}
}

// Unwatch removes the oldest registration of s by Watch, keeping the
// order of the others: a declaration broadcasts in registration order.
func (d *Detector) Unwatch(s *sim.Signal) {
	if d == nil {
		return
	}
	for i, x := range d.watch {
		if x == s {
			d.watch = append(d.watch[:i], d.watch[i+1:]...)
			return
		}
	}
}

// Stop ends detection when the application work is complete: no death
// is declared from then on, so a crash after the run is not reported
// as part of it.
func (d *Detector) Stop() { d.stopped = true }
