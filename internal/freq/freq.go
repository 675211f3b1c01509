// Package freq models the frequency behaviour of a node: per-core DVFS
// with governors and turbo-boost, AVX frequency licences, and the
// uncore (LLC + memory controller) frequency domain.
//
// The model is intentionally mechanistic, following §3 of the paper:
//   - an idle core drops to its minimum frequency;
//   - an active core runs at the turbo limit for the number of active
//     cores in its vector-licence class (or at base frequency with
//     turbo disabled, or at a pinned frequency with the userspace
//     governor);
//   - the uncore frequency either follows demand (more active cores →
//     higher uncore) or is pinned, as the paper does through the BIOS.
//
// Every transition is visible: listeners are notified (the machine layer
// rescales compute-flow caps and memory-controller capacities) and an
// optional trace records per-core frequency steps for Figure 2/3-style
// plots.
package freq

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Governor selects the core frequency policy, mirroring Linux cpufreq.
type Governor int

const (
	// Performance runs active cores as fast as allowed (turbo limit when
	// turbo is enabled, base frequency otherwise); idle cores drop to
	// the minimum frequency (C-states).
	Performance Governor = iota
	// Powersave pins every core to the minimum frequency.
	Powersave
	// Userspace pins every core to the frequency set with SetUserspace,
	// as the paper does with the cpupower tool (§3).
	Userspace
)

func (g Governor) String() string {
	switch g {
	case Performance:
		return "performance"
	case Powersave:
		return "powersave"
	case Userspace:
		return "userspace"
	}
	return fmt.Sprintf("Governor(%d)", int(g))
}

// Sample is one point of a frequency trace.
type Sample struct {
	At   sim.Time
	Core int // -1 for the uncore domain
	GHz  float64
}

// Model tracks the frequency state of one node.
type Model struct {
	k    *sim.Kernel
	spec *topology.NodeSpec

	governor      Governor
	userspaceGHz  float64
	turboEnabled  bool
	uncoreFixed   bool
	uncoreFixedV  float64
	active        []bool
	class         []topology.VecClass
	coreGHz       []float64
	uncoreGHz     float64
	activeByClass [3]int

	listeners []func()
	trace     []Sample
	tracing   bool
	energy    *energyState
}

// NewModel returns the frequency model for spec, with the performance
// governor, turbo enabled, and dynamic uncore — the defaults the paper
// measures under unless stated otherwise.
func NewModel(k *sim.Kernel, spec *topology.NodeSpec) *Model {
	m := &Model{
		k:            k,
		spec:         spec,
		governor:     Performance,
		turboEnabled: true,
		active:       make([]bool, spec.Cores()),
		class:        make([]topology.VecClass, spec.Cores()),
		coreGHz:      make([]float64, spec.Cores()),
	}
	m.recompute()
	return m
}

// Spec returns the node spec the model was built from.
func (m *Model) Spec() *topology.NodeSpec { return m.spec }

// Reset rewinds the model to the state NewModel(k, spec) returns,
// rebinding it to spec — which must have the same core count —
// while keeping its registered listeners. The final recompute notifies
// them, so capacity bookkeeping downstream is rebuilt against spec.
func (m *Model) Reset(spec *topology.NodeSpec) {
	if spec.Cores() != len(m.active) {
		panic(fmt.Sprintf("freq: Reset with %d cores, model has %d", spec.Cores(), len(m.active)))
	}
	m.spec = spec
	m.governor = Performance
	m.userspaceGHz = 0
	m.turboEnabled = true
	m.uncoreFixed = false
	m.uncoreFixedV = 0
	for i := range m.active {
		m.active[i] = false
		m.class[i] = 0
		m.coreGHz[i] = 0
	}
	m.uncoreGHz = 0
	m.activeByClass = [3]int{}
	m.trace = m.trace[:0]
	m.tracing = false
	m.energy = nil
	m.recompute()
}

// OnChange registers fn to run after any frequency changes. Listeners
// must not mutate the model.
func (m *Model) OnChange(fn func()) { m.listeners = append(m.listeners, fn) }

// SetGovernor selects the frequency policy for all cores.
func (m *Model) SetGovernor(g Governor) {
	m.governor = g
	m.recompute()
}

// Governor returns the current policy.
func (m *Model) Governor() Governor { return m.governor }

// SetUserspace pins all cores to f GHz under the userspace governor.
// f is clamped to [CoreMin, CoreBase], the range cpupower accepts.
func (m *Model) SetUserspace(f float64) {
	if f < m.spec.Freq.CoreMin {
		f = m.spec.Freq.CoreMin
	}
	if f > m.spec.Freq.CoreBase {
		f = m.spec.Freq.CoreBase
	}
	m.governor = Userspace
	m.userspaceGHz = f
	m.recompute()
}

// SetTurbo enables or disables turbo-boost.
func (m *Model) SetTurbo(on bool) {
	m.turboEnabled = on
	m.recompute()
}

// SetUncoreFixed pins the uncore domain to f GHz (BIOS/Likwid setting),
// clamped to the permitted range.
func (m *Model) SetUncoreFixed(f float64) {
	if f < m.spec.Freq.UncoreMin {
		f = m.spec.Freq.UncoreMin
	}
	if f > m.spec.Freq.UncoreMax {
		f = m.spec.Freq.UncoreMax
	}
	m.uncoreFixed = true
	m.uncoreFixedV = f
	m.recompute()
}

// SetUncoreDynamic restores demand-driven uncore frequency scaling.
func (m *Model) SetUncoreDynamic() {
	m.uncoreFixed = false
	m.recompute()
}

// SetActive marks a core as running code of the given vector class.
func (m *Model) SetActive(core int, class topology.VecClass) {
	m.checkCore(core)
	if m.active[core] {
		if m.class[core] == class {
			return
		}
		m.accrueEnergy() // charge the elapsed interval at the old state
		m.activeByClass[m.class[core]]--
	} else {
		m.accrueEnergy()
	}
	m.active[core] = true
	m.class[core] = class
	m.activeByClass[class]++
	m.recompute()
}

// SetIdle marks a core as idle.
func (m *Model) SetIdle(core int) {
	m.checkCore(core)
	if !m.active[core] {
		return
	}
	m.accrueEnergy() // charge the elapsed interval at the old state
	m.active[core] = false
	m.activeByClass[m.class[core]]--
	m.recompute()
}

func (m *Model) checkCore(core int) {
	if core < 0 || core >= len(m.active) {
		panic(fmt.Sprintf("freq: core %d out of range [0,%d)", core, len(m.active)))
	}
}

// CoreGHz returns the current frequency of a core.
func (m *Model) CoreGHz(core int) float64 {
	m.checkCore(core)
	return m.coreGHz[core]
}

// UncoreGHz returns the current uncore frequency.
func (m *Model) UncoreGHz() float64 { return m.uncoreGHz }

// UncoreIsFixed reports whether the uncore domain is pinned (BIOS/
// Likwid setting) rather than demand-driven.
func (m *Model) UncoreIsFixed() bool { return m.uncoreFixed }

// ActiveCores returns the number of currently active cores.
func (m *Model) ActiveCores() int {
	return m.activeByClass[0] + m.activeByClass[1] + m.activeByClass[2]
}

// Cycles converts a cycle count on a core to a duration at its current
// frequency.
func (m *Model) Cycles(core int, cycles float64) sim.Duration {
	f := m.CoreGHz(core)
	return sim.DurationOfSeconds(cycles / (f * 1e9))
}

// FlopsRate returns the peak flop rate (flops/s) of a core running the
// given vector class at its current frequency.
func (m *Model) FlopsRate(core int, class topology.VecClass) float64 {
	return m.CoreGHz(core) * 1e9 * m.spec.FlopsPerCycle[class]
}

// UncoreScale returns uncore/UncoreMax in (0,1], the factor by which
// uncore-clocked throughput (memory controllers) scales.
func (m *Model) UncoreScale() float64 {
	return m.uncoreGHz / m.spec.Freq.UncoreMax
}

// StartTrace begins recording frequency transitions.
func (m *Model) StartTrace() {
	m.tracing = true
	m.trace = m.trace[:0]
	m.record()
}

// Tracing reports whether a trace is being recorded.
func (m *Model) Tracing() bool { return m.tracing }

// StopTrace stops recording and returns the samples.
func (m *Model) StopTrace() []Sample {
	m.tracing = false
	return m.trace
}

// recompute recalculates all domain frequencies from the governor,
// turbo state and active-core census, then notifies listeners if
// anything moved. Energy is accrued at the old state first.
func (m *Model) recompute() {
	m.accrueEnergy()
	changed := false
	idle, active := m.targets()
	for c := range m.coreGHz {
		f := idle
		if m.active[c] {
			f = active[m.class[c]]
		}
		if f != m.coreGHz[c] {
			m.coreGHz[c] = f
			changed = true
		}
	}
	u := m.targetUncore()
	if u != m.uncoreGHz {
		m.uncoreGHz = u
		changed = true
	}
	if changed {
		if m.tracing {
			m.record()
		}
		for _, fn := range m.listeners {
			fn()
		}
	}
}

// targets returns the frequency of an idle core and of an active core
// of each vector class: a core's frequency depends on nothing else, so
// recompute evaluates each class's turbo limit once per call, not once
// per core. targets and targetUncore read the frequency spec through a
// pointer: they run on every SetActive/SetIdle, and copying the spec
// took half of their time.
func (m *Model) targets() (idle float64, active [3]float64) {
	fs := &m.spec.Freq
	switch m.governor {
	case Powersave:
		return fs.CoreMin, [3]float64{fs.CoreMin, fs.CoreMin, fs.CoreMin}
	case Userspace:
		u := m.userspaceGHz
		return u, [3]float64{u, u, u}
	}
	// Performance governor.
	for class, n := range m.activeByClass {
		if !m.turboEnabled {
			active[class] = fs.CoreBase
		} else if limit := fs.Turbo[class].Limit(n); limit < fs.CoreMin {
			active[class] = fs.CoreMin
		} else {
			active[class] = limit
		}
	}
	return fs.CoreMin, active
}

func (m *Model) targetUncore() float64 {
	fs := &m.spec.Freq
	if m.uncoreFixed {
		return m.uncoreFixedV
	}
	// Demand-driven: ramps from min to max as cores activate; four
	// active cores saturate the domain.
	active := m.ActiveCores()
	frac := float64(active) / 4
	if frac > 1 {
		frac = 1
	}
	return fs.UncoreMin + (fs.UncoreMax-fs.UncoreMin)*frac
}

// record snapshots every domain into the trace.
func (m *Model) record() {
	now := m.k.Now()
	for c, f := range m.coreGHz {
		m.trace = append(m.trace, Sample{At: now, Core: c, GHz: f})
	}
	m.trace = append(m.trace, Sample{At: now, Core: -1, GHz: m.uncoreGHz})
}
