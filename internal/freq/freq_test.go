package freq

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func henriModel() (*sim.Kernel, *Model) {
	k := sim.NewKernel(1)
	return k, NewModel(k, topology.Henri())
}

func TestIdleCoresAtMinimum(t *testing.T) {
	_, m := henriModel()
	for c := 0; c < m.Spec().Cores(); c++ {
		if got := m.CoreGHz(c); got != 1.0 {
			t.Fatalf("idle core %d at %v GHz, want 1.0", c, got)
		}
	}
}

func TestActiveScalarCoreTurbo(t *testing.T) {
	_, m := henriModel()
	m.SetActive(0, topology.Scalar)
	if got := m.CoreGHz(0); got != 2.5 {
		t.Fatalf("active scalar core at %v, want 2.5 (henri sustained turbo)", got)
	}
	if got := m.CoreGHz(1); got != 1.0 {
		t.Fatalf("idle neighbour at %v, want 1.0", got)
	}
}

func TestTurboDisabledGivesBase(t *testing.T) {
	_, m := henriModel()
	m.SetTurbo(false)
	m.SetActive(0, topology.Scalar)
	if got := m.CoreGHz(0); got != 2.3 {
		t.Fatalf("no-turbo active core at %v, want base 2.3", got)
	}
}

func TestAVX512LicenceMatchesPaperFig3(t *testing.T) {
	_, m := henriModel()
	// 4 AVX-512 cores at 3.0 GHz (Fig 3b).
	for c := 0; c < 4; c++ {
		m.SetActive(c, topology.AVX512)
	}
	if got := m.CoreGHz(0); got != 3.0 {
		t.Fatalf("4 AVX512 cores: %v GHz, want 3.0", got)
	}
	// 20 AVX-512 cores at 2.3 GHz (Fig 3c); the scalar communication
	// core stays at 2.5 GHz.
	for c := 4; c < 20; c++ {
		m.SetActive(c, topology.AVX512)
	}
	m.SetActive(35, topology.Scalar)
	if got := m.CoreGHz(0); got != 2.3 {
		t.Fatalf("20 AVX512 cores: %v GHz, want 2.3", got)
	}
	if got := m.CoreGHz(35); got != 2.5 {
		t.Fatalf("comm core with 20 AVX512 neighbours: %v GHz, want 2.5", got)
	}
}

func TestUserspacePinsAllCores(t *testing.T) {
	_, m := henriModel()
	m.SetUserspace(1.0)
	m.SetActive(3, topology.AVX512)
	if m.CoreGHz(3) != 1.0 || m.CoreGHz(0) != 1.0 {
		t.Fatalf("userspace 1.0: active=%v idle=%v", m.CoreGHz(3), m.CoreGHz(0))
	}
	m.SetUserspace(2.3)
	if m.CoreGHz(3) != 2.3 {
		t.Fatalf("userspace 2.3: %v", m.CoreGHz(3))
	}
	// Clamped to the permitted range.
	m.SetUserspace(9.9)
	if m.CoreGHz(0) != 2.3 {
		t.Fatalf("clamp high: %v, want CoreBase 2.3", m.CoreGHz(0))
	}
	m.SetUserspace(0.1)
	if m.CoreGHz(0) != 1.0 {
		t.Fatalf("clamp low: %v, want CoreMin 1.0", m.CoreGHz(0))
	}
}

func TestPowersave(t *testing.T) {
	_, m := henriModel()
	m.SetGovernor(Powersave)
	m.SetActive(0, topology.Scalar)
	if m.CoreGHz(0) != 1.0 {
		t.Fatalf("powersave active core at %v", m.CoreGHz(0))
	}
}

func TestUncoreDynamicRampsWithActivity(t *testing.T) {
	_, m := henriModel()
	if got := m.UncoreGHz(); got != 1.2 {
		t.Fatalf("idle uncore %v, want 1.2", got)
	}
	m.SetActive(0, topology.Scalar)
	mid := m.UncoreGHz()
	if mid <= 1.2 || mid >= 2.4 {
		t.Fatalf("1 active core: uncore %v, want in (1.2,2.4)", mid)
	}
	for c := 1; c < 8; c++ {
		m.SetActive(c, topology.Scalar)
	}
	if got := m.UncoreGHz(); got != 2.4 {
		t.Fatalf("8 active cores: uncore %v, want max 2.4", got)
	}
}

func TestUncoreFixed(t *testing.T) {
	_, m := henriModel()
	m.SetUncoreFixed(1.2)
	for c := 0; c < 10; c++ {
		m.SetActive(c, topology.Scalar)
	}
	if got := m.UncoreGHz(); got != 1.2 {
		t.Fatalf("fixed uncore drifted to %v", got)
	}
	if got := m.UncoreScale(); got != 0.5 {
		t.Fatalf("UncoreScale = %v, want 0.5", got)
	}
	m.SetUncoreDynamic()
	if got := m.UncoreGHz(); got != 2.4 {
		t.Fatalf("dynamic uncore with 10 active = %v, want 2.4", got)
	}
}

func TestSetIdleRestoresMinimumAndCensus(t *testing.T) {
	_, m := henriModel()
	m.SetActive(5, topology.AVX2)
	m.SetIdle(5)
	m.SetIdle(5) // idempotent
	if m.CoreGHz(5) != 1.0 || m.ActiveCores() != 0 {
		t.Fatalf("after idle: f=%v active=%d", m.CoreGHz(5), m.ActiveCores())
	}
}

func TestReclassifyActiveCore(t *testing.T) {
	_, m := henriModel()
	m.SetActive(0, topology.Scalar)
	m.SetActive(0, topology.AVX512) // same core switches licence
	if m.ActiveCores() != 1 {
		t.Fatalf("census %d after reclassify, want 1", m.ActiveCores())
	}
	if got := m.CoreGHz(0); got != 3.0 {
		t.Fatalf("reclassified core at %v, want AVX512 single-core 3.0", got)
	}
}

func TestListenersFireOnChangeOnly(t *testing.T) {
	_, m := henriModel()
	n := 0
	m.OnChange(func() { n++ })
	m.SetActive(0, topology.Scalar)
	if n == 0 {
		t.Fatal("listener did not fire on activation")
	}
	before := n
	m.SetActive(0, topology.Scalar) // no-op: same state
	if n != before {
		t.Fatalf("listener fired on no-op (%d → %d)", before, n)
	}
}

func TestCyclesDuration(t *testing.T) {
	_, m := henriModel()
	m.SetActive(0, topology.Scalar) // 2.5 GHz
	d := m.Cycles(0, 2500)
	if d != sim.Duration(1000) { // 2500 cycles at 2.5 GHz = 1 µs? No: 1000 ns
		t.Fatalf("2500 cycles at 2.5GHz = %v, want 1000ns", d)
	}
}

func TestFlopsRate(t *testing.T) {
	_, m := henriModel()
	m.SetActive(0, topology.AVX512)
	// 4 AVX512-active? only one: 3.0 GHz × 32 flops/cycle.
	want := 3.0e9 * 32
	if got := m.FlopsRate(0, topology.AVX512); got != want {
		t.Fatalf("FlopsRate = %v, want %v", got, want)
	}
}

func TestTraceRecordsTransitions(t *testing.T) {
	k, m := henriModel()
	m.StartTrace()
	k.After(1000, func() { m.SetActive(0, topology.Scalar) })
	k.After(2000, func() { m.SetIdle(0) })
	k.Run()
	samples := m.StopTrace()
	if len(samples) == 0 {
		t.Fatal("empty trace")
	}
	// Find core 0's samples: must show 1.0 → 2.5 → 1.0.
	var f0 []float64
	for _, s := range samples {
		if s.Core == 0 {
			f0 = append(f0, s.GHz)
		}
	}
	if len(f0) != 3 || f0[0] != 1.0 || f0[1] != 2.5 || f0[2] != 1.0 {
		t.Fatalf("core 0 trace %v, want [1.0 2.5 1.0]", f0)
	}
}

func TestBillyHasNoAVXLicenceDrop(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k, topology.Billy())
	for c := 0; c < 32; c++ {
		m.SetActive(c, topology.AVX2)
	}
	if got := m.CoreGHz(0); got != 2.9 {
		t.Fatalf("billy AVX2 32 cores at %v, want 2.9 (no licence mechanism)", got)
	}
}

func TestEnergyIntegration(t *testing.T) {
	k, m := henriModel()
	m.EnableEnergy(DefaultEnergyParams())
	// 36 idle cores at 1 W + uncore 1.2 GHz × 10 W = 48 W for 1 s.
	k.RunUntil(sim.Time(sim.Second))
	idleJ := m.EnergyJoules()
	if math.Abs(idleJ-48) > 0.5 {
		t.Fatalf("idle energy %.1f J over 1s, want ≈48", idleJ)
	}
	// Activate 4 scalar cores (2.5 GHz) for 1 more second: power rises by
	// 4×(2+0.35×15.625−1) + uncore to 2.4 (Δ12 W).
	m.SetActive(0, topology.Scalar)
	m.SetActive(1, topology.Scalar)
	m.SetActive(2, topology.Scalar)
	m.SetActive(3, topology.Scalar)
	k.RunUntil(sim.Time(2 * sim.Second))
	activeJ := m.EnergyJoules() - idleJ
	wantActive := 48.0 + 4*(2+0.35*2.5*2.5*2.5-1) + (2.4-1.2)*10
	if math.Abs(activeJ-wantActive) > 1 {
		t.Fatalf("active second used %.1f J, want ≈%.1f", activeJ, wantActive)
	}
}

func TestEnergyDisabledReportsZero(t *testing.T) {
	k, m := henriModel()
	k.RunUntil(sim.Time(sim.Second))
	if m.EnergyJoules() != 0 || m.PowerWatts() != 0 {
		t.Fatal("energy reported without EnableEnergy")
	}
}

func TestPowerScalesCubicallyWithFrequency(t *testing.T) {
	_, m := henriModel()
	m.EnableEnergy(DefaultEnergyParams())
	m.SetUserspace(1.0)
	m.SetActive(0, topology.Scalar)
	low := m.PowerWatts()
	m.SetUserspace(2.3)
	high := m.PowerWatts()
	// Dynamic term: 0.35×(2.3³−1³) ≈ 3.9 W, plus nothing else changes.
	if d := high - low; math.Abs(d-0.35*(2.3*2.3*2.3-1)) > 1e-9 {
		t.Fatalf("frequency power delta %.2f W", d)
	}
}

// targetFreq is the frequency of one core from the governor, turbo
// state and census, worked out for that core alone: the reference that
// recompute's per-class limits must reproduce.
func targetFreq(m *Model, core int) float64 {
	fs := &m.spec.Freq
	switch m.governor {
	case Powersave:
		return fs.CoreMin
	case Userspace:
		return m.userspaceGHz
	}
	if !m.active[core] {
		return fs.CoreMin
	}
	if !m.turboEnabled {
		return fs.CoreBase
	}
	class := m.class[core]
	limit := fs.Turbo[class].Limit(m.activeByClass[class])
	if limit < fs.CoreMin {
		return fs.CoreMin
	}
	return limit
}

// TestRecomputeMatchesPerCoreTarget applies random SetActive, SetIdle,
// governor, userspace and turbo changes to a henri node whose AVX2 table
// drops below the minimum frequency past six cores, and checks every
// core's frequency against targetFreq after each change.
func TestRecomputeMatchesPerCoreTarget(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := topology.Henri()
		spec.Freq.Turbo[topology.AVX2] = topology.TurboTable{{MaxActive: 2, Freq: 2.8}, {MaxActive: 6, Freq: 2.1}, {MaxActive: 36, Freq: 0.8}}
		m := NewModel(sim.NewKernel(1), spec)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 12:
				m.SetActive(rng.Intn(spec.Cores()), topology.VecClass(rng.Intn(3)))
			case op < 17:
				m.SetIdle(rng.Intn(spec.Cores()))
			case op < 18:
				m.SetGovernor(Governor(rng.Intn(3)))
			case op < 19:
				m.SetUserspace(0.5 + rng.Float64()*2.5)
			default:
				m.SetTurbo(rng.Intn(3) > 0)
			}
			for c := 0; c < spec.Cores(); c++ {
				if got, want := m.CoreGHz(c), targetFreq(m, c); got != want {
					t.Fatalf("seed %d step %d: core %d at %v GHz, want %v (%s, turbo %v, census %v)",
						seed, step, c, got, want, m.governor, m.turboEnabled, m.activeByClass)
				}
			}
		}
	}
}
