package bench

import (
	"sync"

	"repro/internal/counters"
	"repro/internal/sim"
)

// Meter accumulates execution accounting: every simulated world a point
// builds registers its kernel with the point's own meter, and the
// owning experiment's meter absorbs each point's record, so that after
// the experiment returns the harness can report how many worlds were
// simulated and how much simulated time they covered. A Meter is safe
// for concurrent use, but the usual pattern is one Meter per experiment
// (see Env.Isolated and the runner package).
type Meter struct {
	mu      sync.Mutex
	kernels []*sim.Kernel
	sets    []*counters.Set
	// Absorbed sweep-point accounting (see Absorb): worlds simulated
	// under a point's own meter, including points replayed from cache.
	absorbedSim    float64
	absorbedWorlds int
	absorbedFaults FaultTotals
	// points counts the absorbed records, cachedPoints those loaded from
	// the point cache.
	points, cachedPoints int
}

// Absorb folds a sweep point's record into the meter: sweep points run
// against their own isolated meter (possibly on another goroutine,
// possibly replayed from a cache without simulating at all), and the
// owning experiment absorbs their totals in index order so the campaign
// accounting is identical whichever path produced them.
func (m *Meter) Absorb(rec PointRecord) {
	m.mu.Lock()
	m.absorbedSim += rec.SimSeconds
	m.absorbedWorlds += rec.Worlds
	m.absorbedFaults.merge(rec.Faults)
	m.points++
	if rec.Cached {
		m.cachedPoints++
	}
	m.mu.Unlock()
}

// Replayed reports whether every point record the meter absorbed was
// loaded from the point cache and no world was built outside a point;
// false when it absorbed none.
func (m *Meter) Replayed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.points > 0 && m.cachedPoints == m.points && len(m.kernels) == 0
}

func (m *Meter) track(k *sim.Kernel) {
	m.mu.Lock()
	m.kernels = append(m.kernels, k)
	m.mu.Unlock()
}

// Worlds returns how many simulated worlds have been built so far,
// including worlds absorbed from sweep points.
func (m *Meter) Worlds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.kernels) + m.absorbedWorlds
}

// TrackCounters registers one node's counter set so the harness can
// aggregate fault/recovery statistics over every world an experiment
// built.
func (m *Meter) TrackCounters(s *counters.Set) {
	m.mu.Lock()
	m.sets = append(m.sets, s)
	m.mu.Unlock()
}

// FaultTotals aggregates the fault and recovery counters across every
// tracked node. All fields are zero for healthy experiments.
type FaultTotals struct {
	SendRetries   float64
	SendTimeouts  float64
	RecvTimeouts  float64
	MsgsLost      float64
	MsgsCorrupted float64
	// Crash-recovery totals (zero without node-crash injection).
	PeerDeaths      float64
	TasksReexecuted float64
	RollbackIters   float64
	Checkpoints     float64
	RecoverySecs    float64
}

// add accrues one node's counter set into the totals.
func (t *FaultTotals) add(s *counters.Set) {
	t.SendRetries += s.SendRetries
	t.SendTimeouts += s.SendTimeouts
	t.RecvTimeouts += s.RecvTimeouts
	t.MsgsLost += s.MsgsLost
	t.MsgsCorrupted += s.MsgsCorrupted
	t.PeerDeaths += s.PeerDeaths
	t.TasksReexecuted += s.TasksReexecuted
	t.RollbackIters += s.RollbackIters
	t.Checkpoints += s.Checkpoints
	t.RecoverySecs += s.RecoverySecs
}

// merge accrues another totals value into t.
func (t *FaultTotals) merge(o FaultTotals) {
	t.SendRetries += o.SendRetries
	t.SendTimeouts += o.SendTimeouts
	t.RecvTimeouts += o.RecvTimeouts
	t.MsgsLost += o.MsgsLost
	t.MsgsCorrupted += o.MsgsCorrupted
	t.PeerDeaths += o.PeerDeaths
	t.TasksReexecuted += o.TasksReexecuted
	t.RollbackIters += o.RollbackIters
	t.Checkpoints += o.Checkpoints
	t.RecoverySecs += o.RecoverySecs
}

// Any reports whether any fault activity was recorded.
func (t FaultTotals) Any() bool {
	return t.SendRetries+t.SendTimeouts+t.RecvTimeouts+t.MsgsLost+t.MsgsCorrupted+
		t.PeerDeaths+t.TasksReexecuted+t.RollbackIters+t.Checkpoints+t.RecoverySecs > 0
}

// FaultTotals sums the fault counters of every tracked node. Call it
// after the experiment returns.
func (m *Meter) FaultTotals() FaultTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.absorbedFaults
	for _, s := range m.sets {
		t.add(s)
	}
	return t
}

// SimSeconds returns the total simulated time covered by the tracked
// worlds. Call it after the experiment returns: each driver runs its
// kernels to completion, so Now() is each world's end time.
func (m *Meter) SimSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.absorbedSim
	for _, k := range m.kernels {
		total += sim.Duration(k.Now()).Seconds()
	}
	return total
}
