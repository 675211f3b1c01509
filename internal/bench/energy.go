package bench

import (
	"fmt"

	"repro/internal/freq"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// energyCell is one phase at one core frequency, the payload of an
// energy point.
type energyCell struct {
	Phase   string
	GHz     float64
	Elapsed sim.Duration
	Joules  float64
}

// ExtEnergy quantifies the §7 related-work tradeoff (Lim et al. [14],
// Sundriyal et al. [19]): lowering the CPU frequency during
// communication phases saves energy — essentially for free on
// bandwidth-bound phases (DMA does the work), but at a real
// performance cost on latency-bound phases (the software overhead is
// clocked by the core, §3.1). Reported per phase: duration, node
// energy, and the energy-delay product.
func ExtEnergy(env Env) *trace.Table {
	t := trace.NewTable("EXT — energy/performance tradeoff of frequency scaling in communication phases (after [14])",
		"phase", "core_GHz", "time_ms", "energy_J", "energy_delay_Jms")
	type phase struct {
		name  string
		size  int64
		iters int
	}
	phases := []phase{
		{"latency-bound (4B x 2000)", 4, 2000},
		{"bandwidth-bound (16MB x 40)", 16 << 20, 40},
	}
	var pts []Point
	for _, ph := range phases {
		for _, ghz := range []float64{env.Spec.Freq.CoreMin, env.Spec.Freq.CoreBase} {
			ph, ghz := ph, ghz
			pts = append(pts, Point{
				Key: fmt.Sprintf("energy/size=%d/iters=%d/ghz=%g", ph.size, ph.iters, ghz),
				Fn: func(env Env) any {
					c, w := newWorld(env, 2, env.Seed)
					for i := 0; i < 2; i++ {
						r := w.Rank(i)
						r.SetCommCore(env.Spec.LastCoreOfNUMA(env.Spec.NIC.NUMA))
						r.Node.Freq.SetUserspace(ghz)
						r.Node.Freq.EnableEnergy(freq.DefaultEnergyParams())
					}
					pp := &mpi.PingPong{Size: ph.size, Iters: ph.iters, Warmup: 0}
					var elapsed sim.Duration
					start := c.K.Now()
					runPingPong(c, w, pp, 0, func() { elapsed = c.K.Now().Sub(start) })
					return energyCell{
						Phase: ph.name, GHz: ghz, Elapsed: elapsed,
						Joules: w.Rank(0).Node.Freq.EnergyJoules(),
					}
				},
			})
		}
	}
	for _, cell := range RunPointsAs[energyCell](env, pts) {
		t.Add(cell.Phase, cell.GHz, cell.Elapsed.Seconds()*1e3, cell.Joules,
			cell.Joules*cell.Elapsed.Seconds()*1e3)
	}
	return t
}
