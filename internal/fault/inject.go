package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"
)

// RetryPolicy tunes the MPI layer's retransmission behaviour under lossy
// schedules: a bounded number of retries with exponential backoff and
// multiplicative jitter. The backoff of attempt n is also the timeout
// the sender waits before declaring that attempt lost, so timeouts
// stretch as the fabric misbehaves.
type RetryPolicy struct {
	// RTO is the initial retransmission timeout.
	RTO sim.Duration
	// MaxRetries bounds how many times one message is retransmitted
	// before the transfer fails with a TransferError.
	MaxRetries int
	// BackoffFactor multiplies the timeout on each retry (≥ 1).
	BackoffFactor float64
	// BackoffCap bounds the grown timeout.
	BackoffCap sim.Duration
	// JitterFrac is the relative amplitude of the multiplicative jitter
	// applied to each backoff (decorrelates retry storms); drawn from
	// the injector's seeded RNG, so it is deterministic per seed.
	JitterFrac float64
}

// DefaultPolicy returns the policy used when a schedule does not set
// one: 20µs initial timeout doubling up to 1ms, 8 retries, ±10% jitter.
func DefaultPolicy() RetryPolicy {
	return RetryPolicy{
		RTO:           20 * sim.Microsecond,
		MaxRetries:    8,
		BackoffFactor: 2,
		BackoffCap:    sim.Millisecond,
		JitterFrac:    0.1,
	}
}

// zero reports whether the policy is unset.
func (p RetryPolicy) zero() bool { return p.RTO == 0 && p.MaxRetries == 0 }

// Backoff returns the timeout for retransmission attempt `attempt`
// (0-based): RTO·BackoffFactor^attempt, capped at BackoffCap, then
// jittered by ×(1 ± JitterFrac). The result is always positive.
func (p RetryPolicy) Backoff(attempt int, rng *rand.Rand) sim.Duration {
	d := float64(p.RTO)
	for i := 0; i < attempt; i++ {
		d *= p.BackoffFactor
		if d >= float64(p.BackoffCap) {
			d = float64(p.BackoffCap)
			break
		}
	}
	if d > float64(p.BackoffCap) {
		d = float64(p.BackoffCap)
	}
	if p.JitterFrac > 0 && rng != nil {
		u := rng.Float64()*2 - 1
		d *= 1 + p.JitterFrac*u
	}
	if d < 1 {
		d = 1
	}
	return sim.Duration(d)
}

// TransferError is the error a transfer fails with once its retry budget
// is exhausted. The MPI layer panics with it from the communication
// process; the campaign runner's recovery converts the panic into the
// experiment's Result.Err, so one dead transfer degrades one experiment
// instead of the whole campaign.
type TransferError struct {
	Op       string // "eager", "rendezvous", ...
	Src, Dst int    // node IDs
	Attempts int
}

func (e *TransferError) Error() string {
	return fmt.Sprintf("fault: %s transfer n%d→n%d failed after %d attempts", e.Op, e.Src, e.Dst, e.Attempts)
}

// TxOutcome is the fate of one wire transmission under the injector.
type TxOutcome int

const (
	// TxOK delivers the transmission normally.
	TxOK TxOutcome = iota
	// TxLost drops it; the sender finds out by timeout.
	TxLost
	// TxCorrupt delivers garbage: the payload crosses the wire but the
	// receiver's checksum rejects it, forcing a retransmission.
	TxCorrupt
)

// Injector applies a Schedule to one simulated world. All of its state
// transitions are kernel events and all of its randomness comes from a
// dedicated RNG seeded from the world seed, so injection is fully
// deterministic and independent of the host's worker count.
type Injector struct {
	sched   *Schedule
	policy  RetryPolicy
	k       *sim.Kernel
	rng     *rand.Rand
	cluster *machine.Cluster

	loss, corrupt []Event // static probability windows
	stalls, hangs []Event // static gating windows

	// Degrade bookkeeping: product of active all-wire factors, plus the
	// product of active per-wire factors; push() re-emits the absolute
	// factors through the bound network callback on every transition.
	allFactor  float64
	linkFactor map[[2]int]float64
	scaleWire  func(from, to int, factor float64)

	// Crash bookkeeping: one flag per node, flipped by armed crash and
	// recover transitions. Watched signals are broadcast on every
	// transition so processes blocked on a transfer- or protocol-signal
	// can wake up and re-check liveness.
	crashy bool
	down   []bool
	watch  []*sim.Signal
}

// frozenWireFactor is the capacity multiplier applied to every wire
// touching a crashed node. The fluid model panics on a zero capacity,
// so a dead NIC is modelled as a wire so slow that even a one-byte
// flow's completion lies beyond the solver's scheduling horizon: the
// in-flight transfer freezes (never completes, generates no events)
// until a crash-aware waiter cancels it.
const frozenWireFactor = 1e-24

// NewInjector builds the injector for a cluster and arms the machine
// -level events (stragglers). Wire-level events are armed when the
// network binds via BindWires. The seed should be the world seed; the
// injector derives an independent RNG stream from it so that fault draws
// never perturb the cluster's measurement-jitter stream.
func NewInjector(c *machine.Cluster, s *Schedule, seed int64) *Injector {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("fault: invalid schedule: %v", err))
	}
	inj := &Injector{
		sched:      s,
		policy:     s.Policy,
		k:          c.K,
		rng:        rand.New(rand.NewSource(seed ^ 0x6661756c74)), // "fault"
		cluster:    c,
		allFactor:  1,
		linkFactor: make(map[[2]int]float64),
		down:       make([]bool, len(c.Nodes)),
	}
	if inj.policy.zero() {
		inj.policy = DefaultPolicy()
	}
	for _, e := range s.Events {
		switch e.Kind {
		case PacketLoss:
			inj.loss = append(inj.loss, e)
		case PacketCorrupt:
			inj.corrupt = append(inj.corrupt, e)
		case NICStall:
			inj.stalls = append(inj.stalls, e)
		case CommHang:
			inj.hangs = append(inj.hangs, e)
		case Straggler:
			inj.armStraggler(e)
		case NodeCrash:
			inj.crashy = true
			inj.armCrash(e)
		case NodeRecover:
			e := e
			inj.k.At(sim.Time(0).Add(e.At), func() { inj.setDown(e.Node, false) })
		}
	}
	return inj
}

// armCrash schedules the fail-stop transition of one event (and the
// automatic recovery when the event carries a window).
func (inj *Injector) armCrash(e Event) {
	inj.targetNodes(e.Node) // range check at arm time
	inj.k.At(sim.Time(0).Add(e.At), func() { inj.setDown(e.Node, true) })
	if e.For > 0 {
		inj.k.At(e.end(), func() { inj.setDown(e.Node, false) })
	}
}

// setDown flips a node's crash state: the machine layer gates its
// execution primitives, every wire touching it freezes, and watched
// signals are broadcast so blocked waiters re-check liveness. Runs in
// event context.
func (inj *Injector) setDown(node int, down bool) {
	if node < 0 || node >= len(inj.down) || inj.down[node] == down {
		return
	}
	inj.down[node] = down
	inj.cluster.Nodes[node].SetDown(down)
	inj.push()
	for _, s := range inj.watch {
		s.Broadcast()
	}
}

// Crashy reports whether the schedule contains node-crash events at
// all; a static property like Lossy, so crash-free worlds never take
// the crash-aware code paths.
func (inj *Injector) Crashy() bool { return inj.crashy }

// Crashed reports whether a node is currently down.
func (inj *Injector) Crashed(node int) bool {
	return node >= 0 && node < len(inj.down) && inj.down[node]
}

// WatchCrash registers a signal to be broadcast on every crash/recover
// transition. A process waiting on a protocol signal that a dead peer
// will never fire registers it here, wakes on the transition, re-checks
// liveness, and unregisters via the returned function.
func (inj *Injector) WatchCrash(s *sim.Signal) (unwatch func()) {
	inj.watch = append(inj.watch, s)
	return func() {
		for i, x := range inj.watch {
			if x == s {
				inj.watch = append(inj.watch[:i], inj.watch[i+1:]...)
				return
			}
		}
	}
}

// Policy returns the effective retry policy.
func (inj *Injector) Policy() RetryPolicy { return inj.policy }

// Lossy reports whether the schedule contains loss/corruption events at
// all. It is a static property: the MPI layer selects its code path per
// world, not per message, so fault-free worlds never touch the
// retransmission machinery.
func (inj *Injector) Lossy() bool { return len(inj.loss)+len(inj.corrupt) > 0 }

// Backoff returns the jittered timeout for retransmission attempt n.
func (inj *Injector) Backoff(attempt int) sim.Duration {
	return inj.policy.Backoff(attempt, inj.rng)
}

// Tx draws the fate of one wire transmission at the current instant.
func (inj *Injector) Tx() TxOutcome {
	now := inj.k.Now()
	if p := activeProb(inj.loss, now); p > 0 && inj.rng.Float64() < p {
		return TxLost
	}
	if p := activeProb(inj.corrupt, now); p > 0 && inj.rng.Float64() < p {
		return TxCorrupt
	}
	return TxOK
}

// activeProb combines the probabilities of every window active at t:
// independent loss processes compose as 1−∏(1−p).
func activeProb(events []Event, t sim.Time) float64 {
	keep := 1.0
	for _, e := range events {
		if e.window(t) {
			keep *= 1 - e.Prob
		}
	}
	return 1 - keep
}

// GateNIC blocks p while node's NIC is stalled (the PIO path and DMA
// programming freeze; in-flight fluid transfers are not interrupted).
func (inj *Injector) GateNIC(p *sim.Proc, node int) { inj.gate(p, inj.stalls, node) }

// GateComm blocks p while node's communication thread is hung.
func (inj *Injector) GateComm(p *sim.Proc, node int) { inj.gate(p, inj.hangs, node) }

func (inj *Injector) gate(p *sim.Proc, events []Event, node int) {
	for {
		var until sim.Time = -1
		now := p.Now()
		for _, e := range events {
			if (e.Node < 0 || e.Node == node) && e.window(now) && e.end() > until {
				until = e.end()
			}
		}
		if until < 0 {
			return
		}
		p.Sleep(until.Sub(now))
	}
}

// armStraggler schedules the slowdown transitions of one event.
func (inj *Injector) armStraggler(e Event) {
	apply := func(mult float64) {
		for _, n := range inj.targetNodes(e.Node) {
			for _, core := range e.sortedCores(n.Spec.Cores()) {
				n.SetCoreSlowdown(core, n.CoreSlowdown(core)*mult)
			}
		}
	}
	inj.k.At(sim.Time(0).Add(e.At), func() { apply(e.Factor) })
	if e.For > 0 {
		inj.k.At(e.end(), func() { apply(1 / e.Factor) })
	}
}

// targetNodes resolves a Node field (-1 = all).
func (inj *Injector) targetNodes(node int) []*machine.Node {
	if node < 0 {
		return inj.cluster.Nodes
	}
	if node >= len(inj.cluster.Nodes) {
		panic(fmt.Sprintf("fault: node %d out of range [0,%d)", node, len(inj.cluster.Nodes)))
	}
	return inj.cluster.Nodes[node : node+1]
}

// BindWires attaches the network's wire-scaling callback and arms the
// LinkDegrade events. scale receives the directed pair (or -1/-1 for
// every wire) and the absolute capacity factor to apply.
func (inj *Injector) BindWires(scale func(from, to int, factor float64)) {
	inj.scaleWire = scale
	for _, e := range inj.sched.Events {
		if e.Kind != LinkDegrade {
			continue
		}
		e := e
		inj.k.At(sim.Time(0).Add(e.At), func() { inj.applyDegrade(e, e.Factor) })
		if e.For > 0 {
			inj.k.At(e.end(), func() { inj.applyDegrade(e, 1/e.Factor) })
		}
	}
}

// applyDegrade folds one transition into the factor bookkeeping and
// re-emits the absolute factors (handles overlapping degrade windows:
// concurrent events compose multiplicatively).
func (inj *Injector) applyDegrade(e Event, mult float64) {
	if e.From < 0 {
		inj.allFactor *= mult
	} else {
		key := [2]int{e.From, e.To}
		f, ok := inj.linkFactor[key]
		if !ok {
			f = 1
		}
		inj.linkFactor[key] = f * mult
	}
	inj.push()
}

// push re-emits every wire's absolute factor through the network, in
// sorted wire order: map iteration order must never leak into the
// kernel's event sequence.
func (inj *Injector) push() {
	if inj.scaleWire == nil {
		return
	}
	inj.scaleWire(-1, -1, inj.allFactor)
	keys := make([][2]int, 0, len(inj.linkFactor))
	for key := range inj.linkFactor {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		inj.scaleWire(key[0], key[1], inj.allFactor*inj.linkFactor[key])
	}
	// Freeze every wire touching a crashed node (after the degrade
	// factors above, so recovery restores the degraded — not the full —
	// capacity).
	anyDown := false
	for _, d := range inj.down {
		anyDown = anyDown || d
	}
	if !anyDown {
		return
	}
	for from := range inj.down {
		for to := range inj.down {
			if from == to || (!inj.down[from] && !inj.down[to]) {
				continue
			}
			f, ok := inj.linkFactor[[2]int{from, to}]
			if !ok {
				f = 1
			}
			inj.scaleWire(from, to, inj.allFactor*f*frozenWireFactor)
		}
	}
}
