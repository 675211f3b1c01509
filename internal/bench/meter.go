package bench

import (
	"sync"

	"repro/internal/counters"
)

// Meter totals the accounting of the point records an experiment's
// sweeps return: ExecutePoint seals each record's simulated seconds,
// world count and fault totals from the worlds its point built, and the
// owning experiment's meter absorbs the records in index order, so that
// after the experiment returns the harness can report how many worlds
// were simulated and how much simulated time they covered, whichever
// records were executed and whichever replayed from the point cache. A
// Meter is safe for concurrent use, but the usual pattern is one Meter
// per experiment (see Env.Isolated and the runner package).
type Meter struct {
	mu         sync.Mutex
	simSeconds float64
	worlds     int
	faults     counters.Faults
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
	m.simSeconds += rec.SimSeconds
	m.worlds += rec.Worlds
	m.faults.Add(rec.Faults)
	m.points++
	if rec.Cached {
		m.cachedPoints++
	}
	m.mu.Unlock()
}

// Replayed reports whether every point record the meter absorbed was
// loaded from the point cache; false when it absorbed none.
func (m *Meter) Replayed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.points > 0 && m.cachedPoints == m.points
}

// Worlds returns how many simulated worlds the absorbed records built.
func (m *Meter) Worlds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.worlds
}

// Faults returns the absorbed records' fault and recovery totals; all
// zero for healthy experiments.
func (m *Meter) Faults() counters.Faults {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// SimSeconds returns the simulated time the absorbed records covered.
func (m *Meter) SimSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.simSeconds
}
