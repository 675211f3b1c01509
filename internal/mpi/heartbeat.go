package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements the sim-time heartbeat failure detector: every
// rank runs a monitor process that probes its peers' liveness each
// Period and declares a peer dead once it has been unresponsive for
// Timeout (the suspicion timeout). Semantics follow ULFM: survivors
// observe the failure, the active communicator shrinks (AliveRanks),
// and the fault-tolerant point-to-point operations (SendFT/RecvFT)
// surface ErrPeerDead instead of hanging forever. Once declared dead a
// rank stays dead even if its node later recovers — rejoining a
// shrunken communicator is out of scope, as in ULFM.
//
// There is one point-to-point protocol (send/recv in mpi.go): SendFT
// and RecvFT hand it the world's detector, Send and Recv hand it nil. A
// nil *Detector is a detector that never declares a death — Dead
// reports false and Watch does nothing — so the protocol's waits need
// no separate healthy path.
//
// The probe itself is modelled out of band: a monitor reads the fault
// injector's crash ground truth instead of exchanging real heartbeat
// messages (which would perturb the measured traffic). The probe's
// round-trip time is considered folded into the suspicion timeout, so
// detection latency is Timeout plus up to one Period — deterministic in
// sim time and identical at any host worker count.

// HeartbeatConfig tunes the failure detector.
type HeartbeatConfig struct {
	// Period is the interval between liveness probes.
	Period sim.Duration
	// Timeout is the suspicion timeout: a peer unresponsive for this
	// long is declared dead.
	Timeout sim.Duration
}

// DefaultHeartbeat returns the configuration used by the harness:
// 50µs probes, 200µs suspicion timeout.
func DefaultHeartbeat() HeartbeatConfig {
	return HeartbeatConfig{Period: 50 * sim.Microsecond, Timeout: 200 * sim.Microsecond}
}

// Detector is the world-wide failure detector state: which ranks are
// still members of the (shrinking) communicator, and when each death
// was declared.
type Detector struct {
	w       *World
	cfg     HeartbeatConfig
	alive   []bool
	deadAt  []sim.Time
	stopped bool
	watch   []*sim.Signal
	onDeath []func(rank int)
}

// StartHeartbeat arms the failure detector: one monitor process per
// rank, probing every cfg.Period. Idempotent — a second call returns
// the existing detector. Call Stop when the application work is done so
// the monitors stop generating events.
func (w *World) StartHeartbeat(cfg HeartbeatConfig) *Detector {
	if w.det != nil {
		return w.det
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultHeartbeat().Period
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultHeartbeat().Timeout
	}
	d := &Detector{
		w:      w,
		cfg:    cfg,
		alive:  make([]bool, len(w.ranks)),
		deadAt: make([]sim.Time, len(w.ranks)),
	}
	for i := range d.alive {
		d.alive[i] = true
		d.deadAt[i] = -1
	}
	w.det = d
	for i := range w.ranks {
		i := i
		w.cluster.K.Spawn(fmt.Sprintf("hb.n%d", i), func(p *sim.Proc) {
			d.monitor(p, i)
		})
	}
	return d
}

// Detector returns the world's failure detector, or nil when
// StartHeartbeat was never called (crash-free worlds).
func (w *World) Detector() *Detector { return w.det }

// monitor is rank self's probe loop.
func (d *Detector) monitor(p *sim.Proc, self int) {
	inj := d.w.inj
	lastSeen := make([]sim.Time, len(d.alive))
	for {
		if d.stopped {
			return
		}
		// A crashed node's own monitor dies with it.
		if inj != nil && inj.Crashed(d.w.ranks[self].Node.ID) {
			return
		}
		now := p.Now()
		for peer := range d.alive {
			if peer == self || !d.alive[peer] {
				continue
			}
			peerDown := inj != nil && inj.Crashed(d.w.ranks[peer].Node.ID)
			if !peerDown {
				lastSeen[peer] = now
			} else if now.Sub(lastSeen[peer]) >= d.cfg.Timeout {
				d.declareDead(peer)
			}
		}
		p.Sleep(d.cfg.Period)
	}
}

// declareDead marks a rank dead exactly once: survivors' PeerDeaths
// counters bump, registered death callbacks fire, and watched signals
// are broadcast so blocked fault-tolerant operations re-check liveness.
// Runs in the first detecting monitor's process context.
func (d *Detector) declareDead(rank int) {
	if d.stopped || !d.alive[rank] {
		return
	}
	d.alive[rank] = false
	d.deadAt[rank] = d.w.cluster.K.Now()
	inj := d.w.inj
	for i, a := range d.alive {
		if a && !(inj != nil && inj.Crashed(d.w.ranks[i].Node.ID)) {
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

// Stop shuts the detector down: monitors exit at their next tick and no
// further deaths are declared. Call it when the application work is
// complete so the simulation drains.
func (d *Detector) Stop() { d.stopped = true }
