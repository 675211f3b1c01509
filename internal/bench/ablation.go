package bench

// Ablations: quantify the role of each calibrated mechanism DESIGN.md §4
// introduces, by re-running the Fig 4 full-load point with one mechanism
// disabled at a time. This documents which headline result each model
// ingredient carries.

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/trace"
)

// ablationCase disables one mechanism in a copy of the spec.
type ablationCase struct {
	Name   string
	Doc    string
	Mutate func(spec *topology.NodeSpec)
}

func ablationCases() []ablationCase {
	return []ablationCase{
		{
			Name:   "full-model",
			Doc:    "all mechanisms enabled (the calibrated model)",
			Mutate: func(*topology.NodeSpec) {},
		},
		{
			Name: "no-dma-arbitration",
			Doc:  "NIC DMA loses its growing arbitration priority (pure fair share)",
			Mutate: func(s *topology.NodeSpec) {
				s.NIC.DMAPriorityPerStream = 0
			},
		},
		{
			Name: "no-latency-contention",
			Doc:  "memory accesses never queue (ContentionK = 0)",
			Mutate: func(s *topology.NodeSpec) {
				s.Mem.ContentionK = 0
			},
		},
		{
			Name: "no-stream-efficiency-loss",
			Doc:  "controllers keep full capacity under many streams",
			Mutate: func(s *topology.NodeSpec) {
				s.Mem.StreamEfficiency = 0
			},
		},
		{
			Name: "infinite-upi",
			Doc:  "cross-socket bus can never saturate",
			Mutate: func(s *topology.NodeSpec) {
				s.Mem.LinkGBs = 10000
			},
		},
	}
}

// ablationCell is one ablated model's headline metrics, the payload of
// an ablation point.
type ablationCell struct {
	LatFactor, BwDrop, StreamGBps float64
}

// Ablation runs the Fig 4 full-load configuration (STREAM TRIAD on all
// cores, data near NIC, comm thread far) under each ablated model and
// reports the headline metrics.
func Ablation(env Env) *trace.Table {
	cases := ablationCases()
	pts := make([]Point, 0, len(cases))
	for _, c := range cases {
		c := c
		pts = append(pts, Point{
			// The case name determines the spec mutation; everything else is
			// the campaign spec (hashed into the cache base key).
			Key: fmt.Sprintf("ablation/%s", c.Name),
			Fn: func(env Env) any {
				spec := env.Spec.Clone()
				c.Mutate(spec)
				caseEnv := env
				caseEnv.Spec = spec
				caseEnv.Runs = 1
				pts := Fig4Contention(caseEnv, ContentionConfig{
					Data: Near, CommThread: Far, CoreCounts: []int{spec.Cores() - 1},
				})
				pt := pts[0]
				latFactor := 0.0
				if m := pt.Latency.CommAlone.Median; m > 0 {
					latFactor = pt.Latency.CommTogether.Median / m
				}
				bwDrop := 0.0
				if a := pt.Bandwidth.BandwidthAlone(); a > 0 {
					bwDrop = 100 * (1 - pt.Bandwidth.BandwidthTogether()/a)
				}
				return ablationCell{
					LatFactor:  latFactor,
					BwDrop:     bwDrop,
					StreamGBps: pt.Bandwidth.ComputeTogether.Median / 1e9,
				}
			},
		})
	}
	t := trace.NewTable("Ablation — Fig 4 full-load point with one model mechanism disabled at a time",
		"variant", "latency_factor", "bandwidth_drop_%", "stream_GBps_per_core", "note")
	for i, cell := range RunPointsAs[ablationCell](env, pts) {
		t.Add(cases[i].Name, cell.LatFactor, cell.BwDrop, cell.StreamGBps, cases[i].Doc)
	}
	return t
}
