package freq

import "repro/internal/sim"

// Energy accounting. The paper's related work (§7: Lim et al.,
// Sundriyal et al., Liu et al.) frames frequency scaling as an
// energy/communication-performance tradeoff; this model integrates
// per-core power over simulated time so the tradeoff can be quantified
// on the same machine models (see the ext-energy experiment).
//
// The power model is the standard decomposition: an idle (C-state)
// floor, per-active-core static leakage, a dynamic term cubic in the
// core frequency (P ∝ C·V²·f with V roughly ∝ f), and an uncore term
// linear in the uncore frequency.

// EnergyParams parameterises the node power model, in watts.
type EnergyParams struct {
	// CoreIdleW is drawn by a core parked in a C-state.
	CoreIdleW float64
	// CoreStaticW is the leakage of an active core, frequency-independent.
	CoreStaticW float64
	// CoreDynWPerGHz3 scales the dynamic term: P_dyn = k · f³ (f in GHz).
	CoreDynWPerGHz3 float64
	// UncoreWPerGHz scales the uncore domain's power.
	UncoreWPerGHz float64
}

// DefaultEnergyParams roughly matches a 140 W TDP dual-socket Xeon:
// 36 active cores at 2.5 GHz ≈ 36×(2 + 0.35·15.6) ≈ 270 W plus uncore.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{
		CoreIdleW:       1.0,
		CoreStaticW:     2.0,
		CoreDynWPerGHz3: 0.35,
		UncoreWPerGHz:   10,
	}
}

// EnableEnergy starts energy integration with the given parameters.
// Must be called before the simulation advances.
func (m *Model) EnableEnergy(params EnergyParams) {
	m.energy = &energyState{params: params, last: m.k.Now()}
}

// energyState accumulates joules between frequency transitions.
type energyState struct {
	params EnergyParams
	last   sim.Time
	joules float64
}

// EnergyJoules returns the node's accumulated energy up to the current
// instant. Returns 0 when EnableEnergy was never called.
func (m *Model) EnergyJoules() float64 {
	if m.energy == nil {
		return 0
	}
	m.accrueEnergy()
	return m.energy.joules
}

// PowerWatts returns the node's instantaneous power draw under the
// current frequency/activity state (0 without EnableEnergy).
func (m *Model) PowerWatts() float64 {
	if m.energy == nil {
		return 0
	}
	p := m.energy.params
	watts := p.UncoreWPerGHz * m.uncoreGHz
	for c := range m.coreGHz {
		if m.active[c] {
			f := m.coreGHz[c]
			watts += p.CoreStaticW + p.CoreDynWPerGHz3*f*f*f
		} else {
			watts += p.CoreIdleW
		}
	}
	return watts
}

// AccrueEnergy charges the energy drawn since the last accrual at the
// current power, as every state change does first. A caller that skips
// a change that would leave the state as it was (a core going idle and
// active again at one instant) calls it instead, so the energy integral
// is summed over the same intervals.
func (m *Model) AccrueEnergy() { m.accrueEnergy() }

// accrueEnergy integrates power since the last accrual. Called before
// every state change and on reads.
func (m *Model) accrueEnergy() {
	if m.energy == nil {
		return
	}
	now := m.k.Now()
	if now == m.energy.last {
		return
	}
	dt := now.Sub(m.energy.last).Seconds()
	m.energy.joules += m.PowerWatts() * dt
	m.energy.last = now
}
