package bench

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/topology"
)

// claim is one statement of the paper (or one expected behaviour of an
// extension experiment) as a check the machine runs. Each claim is
// evaluated at the golden configuration (henri, 3 runs, noise on),
// through the same drivers the experiments call, at every seed of
// claimSeeds.
type claim struct {
	id   string // short handle, the subtest name
	cite string // the figure or section it reproduces
	text string // the statement, as the paper (or the extension) makes it
	// check measures the claim in env and returns an error naming every
	// predicate that does not hold.
	check func(env Env) error
}

// claimSeeds are the golden seed and two more: a claim must not hold by
// the luck of one noise draw.
var claimSeeds = []int64{1, 7, 42}

// claimEnv is the golden configuration at seed.
func claimEnv(seed int64) Env {
	return Env{Spec: topology.Henri(), Seed: seed, Runs: 3}
}

// failures collects the predicates of one claim that do not hold.
type failures []error

func (f *failures) want(ok bool, format string, args ...any) {
	if !ok {
		*f = append(*f, fmt.Errorf(format, args...))
	}
}

func (f failures) err() error { return errors.Join(f...) }

var claims = []claim{
	{
		id:   "fig8",
		cite: "Fig 8, §5.3",
		text: "a communication thread co-located with its data (both near or both far from the NIC) beats both split placements",
		check: func(env Env) error {
			lat := map[[2]bool]float64{}
			for _, p := range Fig8Runtime(env) {
				lat[[2]bool{p.DataClose, p.ThreadClose}] = p.Latency.Median
			}
			if len(lat) != 4 {
				return fmt.Errorf("%d placements, want 4", len(lat))
			}
			split1, split2 := lat[[2]bool{true, false}], lat[[2]bool{false, true}]
			var f failures
			for _, co := range []struct {
				name string
				us   float64
			}{{"close/close", lat[[2]bool{true, true}]}, {"far/far", lat[[2]bool{false, false}]}} {
				f.want(co.us < split1 && co.us < split2,
					"co-located %s (%.2fµs) not faster than the splits (%.2fµs, %.2fµs)",
					co.name, co.us*1e6, split1*1e6, split2*1e6)
			}
			return f.err()
		},
	},
	{
		id:   "fig9",
		cite: "Fig 9, §5.4",
		text: "more frequent polling is slower (backoff-2 ≥ default-32 > paused), and rare polling ≈ paused (backoff-10000 ≤ 1.2 × paused)",
		check: func(env Env) error {
			lat := map[string]float64{}
			for _, p := range Fig9Polling(env) {
				lat[p.Label] = p.Latency.Median
			}
			var f failures
			f.want(lat["backoff-2"] >= lat["default-32"], "backoff-2 (%.2fµs) below default-32 (%.2fµs)",
				lat["backoff-2"]*1e6, lat["default-32"]*1e6)
			f.want(lat["default-32"] > lat["paused"], "default-32 (%.2fµs) not above paused (%.2fµs)",
				lat["default-32"]*1e6, lat["paused"]*1e6)
			f.want(lat["backoff-10000"] <= 1.2*lat["paused"], "backoff-10000 (%.2fµs) above 1.2 × paused (%.2fµs)",
				lat["backoff-10000"]*1e6, lat["paused"]*1e6)
			return f.err()
		},
	},
	{
		id:   "fig10",
		cite: "Fig 10, §6",
		text: "at 34 workers CG loses more send bandwidth than GEMM, at least 40% of its 2-worker bandwidth, and stalls on memory for 50–95% of its cycles; GEMM loses at most 50% and stalls at most 45%",
		check: func(env Env) error {
			pts := map[string]Fig10Point{}
			for _, p := range Fig10Kernels(env, nil) {
				pts[fmt.Sprintf("%s/%d", p.Kernel, p.Workers)] = p
			}
			loss := func(kernel string) float64 {
				return 1 - pts[kernel+"/34"].SendBandwidth/pts[kernel+"/2"].SendBandwidth
			}
			cgLoss, gemmLoss := loss("cg"), loss("gemm")
			cgStall, gemmStall := pts["cg/34"].StallFraction, pts["gemm/34"].StallFraction
			var f failures
			f.want(cgLoss > gemmLoss, "CG send loss %.3f not above GEMM's %.3f", cgLoss, gemmLoss)
			f.want(cgLoss >= 0.4, "CG send loss %.3f below 0.4 (paper: up to 0.9)", cgLoss)
			f.want(gemmLoss <= 0.5, "GEMM send loss %.3f above 0.5 (paper: ≤ 0.2)", gemmLoss)
			f.want(cgStall >= 0.5 && cgStall <= 0.95, "CG stall fraction %.3f outside [0.5, 0.95] (paper: ≈ 0.7)", cgStall)
			f.want(gemmStall <= 0.45, "GEMM stall fraction %.3f above 0.45 (paper: ≈ 0.2)", gemmStall)
			return f.err()
		},
	},
	{
		id:   "ext-tuner",
		cite: "§8 (worker-count autotuning)",
		text: "the whole-program optimum uses fewer workers than the 34 available",
		check: func(env Env) error {
			series := extTunerSeries(env)
			best := tunerOptimum(series)
			most := series[len(series)-1].Workers
			if most != 34 || best.Workers >= most {
				return fmt.Errorf("optimum at %d workers of %d, want below 34", best.Workers, most)
			}
			return nil
		},
	},
	{
		id:   "ext-sched",
		cite: "§8 (NUMA-local scheduling)",
		text: "NUMA-local scheduling is at least 2× faster than the central eager FIFO",
		check: func(env Env) error {
			s := extSchedulerSeries(env)
			fifo, local := s[0].IterSeconds, s[1].IterSeconds
			if fifo < 2*local {
				return fmt.Errorf("%s %.3fms vs %s %.3fms: less than 2× faster",
					extPolicies[1], local*1e3, extPolicies[0], fifo*1e3)
			}
			return nil
		},
	},
	{
		id:   "ext-throttle",
		cite: "§8 (communication-phase throttling)",
		text: "24 throttled workers beat none on iteration time and on send bandwidth",
		check: func(env Env) error {
			s := extThrottleSeries(env)
			none, most := s[0], s[len(s)-1]
			if extThrottles[0] != 0 || extThrottles[len(s)-1] != 24 {
				return fmt.Errorf("throttle levels %v, want 0 first and 24 last", extThrottles)
			}
			var f failures
			f.want(most.IterSeconds < none.IterSeconds, "iteration %.3fms throttled vs %.3fms not",
				most.IterSeconds*1e3, none.IterSeconds*1e3)
			f.want(most.SendBandwidth > none.SendBandwidth, "send bandwidth %.0fMB/s throttled vs %.0fMB/s not",
				most.SendBandwidth/1e6, none.SendBandwidth/1e6)
			return f.err()
		},
	},
}

// TestClaims checks every claim of the registry at every claim seed.
func TestClaims(t *testing.T) {
	for _, c := range claims {
		for _, seed := range claimSeeds {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed=%d", c.id, seed), func(t *testing.T) {
				if err := c.check(claimEnv(seed)); err != nil {
					t.Errorf("%s: %s:\n%v", c.cite, c.text, err)
				}
			})
		}
	}
}
