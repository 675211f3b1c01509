package bench

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Placement names the two NUMA binding choices of §4.3.
type Placement int

const (
	// Near means on the same NUMA node as the NIC.
	Near Placement = iota
	// Far means on a NUMA node of the other socket.
	Far
)

func (pl Placement) String() string {
	if pl == Near {
		return "near"
	}
	return "far"
}

// numaOf resolves a placement to a NUMA node for the given spec: Near
// is the NIC's NUMA node, Far is the last NUMA node (other socket).
func (pl Placement) numaOf(spec *topology.NodeSpec) int {
	if pl == Near {
		return spec.NIC.NUMA
	}
	return spec.NUMANodes() - 1
}

// ContentionPoint is one x-position of Figures 4/5: a computing-core
// count with the three-step protocol results for both the latency and
// the bandwidth benchmarks.
type ContentionPoint struct {
	Cores     int
	Latency   InterferenceResult // 4-byte ping-pong
	Bandwidth InterferenceResult // 64 MB ping-pong
}

// ContentionConfig parameterises the §4 experiments.
type ContentionConfig struct {
	// Kernel builds one compute slice given the data NUMA node; defaults
	// to STREAM TRIAD of the default array size.
	Kernel func(numa int) machine.ComputeSpec
	// KernelTag names a non-nil Kernel for sweep-point cache addressing
	// (two configs with the same tag must build identical kernels). A
	// nil Kernel is tagged "triad-default" automatically; a non-nil
	// Kernel with an empty tag disables the point layer for this sweep
	// (it runs as a plain serial loop, never cached).
	KernelTag string
	// Data and CommThread place the computation/communication memory and
	// the communication thread relative to the NIC (§4.3).
	Data, CommThread Placement
	// CoreCounts lists the x-axis; empty means 1..cores−1.
	CoreCounts []int
}

// Fig4Contention reproduces Figure 4 (and, with other placements,
// Figure 5): memory-bound computations beside latency and bandwidth
// ping-pongs, as a function of the number of computing cores. Memory
// for computation and communication is allocated on the Data placement;
// the communication thread is bound to the last core of the CommThread
// placement's NUMA node.
func Fig4Contention(env Env, cfg ContentionConfig) []ContentionPoint {
	lat, bw := placedPingPongs(env.Spec, cfg.Data, cfg.CommThread)
	pts, ok := contentionSweep(env.Spec, cfg)
	if !ok {
		// Un-taggable custom kernel: run the sweep as a plain serial
		// loop against the caller's environment, bypassing the point
		// scheduler and its cache.
		out := make([]ContentionPoint, 0, len(contentionCoreCounts(env.Spec, cfg)))
		for _, nc := range contentionCoreCounts(env.Spec, cfg) {
			out = append(out, contentionCell(env, cfg, nc))
		}
		fillContention(out, commAlone(env, lat), commAlone(env, bw))
		return out
	}
	cells, alone := runWithSolos[ContentionPoint](env, pts, []CommConfig{lat, bw})
	fillContention(cells, alone[lat], alone[bw])
	return cells
}

// contentionCoreCounts resolves the x-axis of a contention sweep.
func contentionCoreCounts(spec *topology.NodeSpec, cfg ContentionConfig) []int {
	if len(cfg.CoreCounts) > 0 {
		return cfg.CoreCounts
	}
	var counts []int
	for n := 1; n < spec.Cores(); n++ {
		counts = append(counts, n)
	}
	return counts
}

// contentionSweep compiles a contention configuration into one sweep
// point per core count. ok is false when the config carries a custom
// kernel without a KernelTag — such a sweep has no sound cache address
// and must run as a plain loop. The cells leave CommAlone unset: the
// sweep fills it from the shared baselines (fillContention).
func contentionSweep(spec *topology.NodeSpec, cfg ContentionConfig) ([]Point, bool) {
	tag := cfg.KernelTag
	if cfg.Kernel == nil {
		if tag == "" {
			tag = "triad-default"
		}
	} else if tag == "" {
		return nil, false
	}
	counts := contentionCoreCounts(spec, cfg)
	pts := make([]Point, 0, len(counts))
	for _, nc := range counts {
		nc := nc
		pts = append(pts, Point{
			Key: fmt.Sprintf("contention/data=%s/comm=%s/kernel=%s/cores=%d",
				cfg.Data, cfg.CommThread, tag, nc),
			Fn: func(env Env) any { return contentionCell(env, cfg, nc) },
		})
	}
	return pts, true
}

// placedPingPongs returns the paper's latency and bandwidth ping-pongs
// with their buffers on the data placement and the communication thread
// on the last core of the thread placement's NUMA node.
func placedPingPongs(spec *topology.NodeSpec, data, thread Placement) (lat, bw CommConfig) {
	lat, bw = LatencyConfig(), BandwidthConfig()
	lat.CommCore = spec.LastCoreOfNUMA(thread.numaOf(spec))
	lat.BufNUMA = data.numaOf(spec)
	bw.CommCore, bw.BufNUMA = lat.CommCore, lat.BufNUMA
	return lat, bw
}

// contentionCell measures one core count of a Figure 4/5 sweep: the
// compute-alone step once, shared by both halves, and the side-by-side
// step for the latency and the bandwidth benchmarks. CommAlone is left
// for the sweep to fill.
func contentionCell(env Env, cfg ContentionConfig, nc int) ContentionPoint {
	kernel := cfg.Kernel
	if kernel == nil {
		kernel = func(numa int) machine.ComputeSpec {
			return kernels.StreamTriad(kernels.DefaultStreamElems, numa)
		}
	}
	lat, bw := placedPingPongs(env.Spec, cfg.Data, cfg.CommThread)
	comp := ComputeConfig{Slice: kernel(lat.BufNUMA), Cores: nc}
	rs := cellResults(env, comp, lat, bw)
	return ContentionPoint{Cores: nc, Latency: rs[0], Bandwidth: rs[1]}
}

// fillContention sets the comm-alone baselines of a contention series.
func fillContention(pts []ContentionPoint, latAlone, bwAlone stats.Summary) {
	for i := range pts {
		pts[i].Latency.CommAlone = latAlone
		pts[i].Bandwidth.CommAlone = bwAlone
	}
}

// ContentionTable renders a Figure 4/5 series.
func ContentionTable(title string, points []ContentionPoint) *trace.Table {
	t := trace.NewTable(title,
		"cores",
		"latency_us_alone", "latency_us_with_compute",
		"bandwidth_MBps_alone", "bandwidth_MBps_with_compute",
		"stream_GBps_per_core_alone", "stream_GBps_with_lat", "stream_GBps_with_bw")
	for _, pt := range points {
		t.Add(pt.Cores,
			pt.Latency.CommAlone.Median*1e6, pt.Latency.CommTogether.Median*1e6,
			pt.Bandwidth.BandwidthAlone()/1e6, pt.Bandwidth.BandwidthTogether()/1e6,
			pt.Latency.ComputeAlone.Median/1e9,
			pt.Latency.ComputeTogether.Median/1e9,
			pt.Bandwidth.ComputeTogether.Median/1e9)
	}
	return t
}

// Fig5Placement runs the four placement schemes of Figure 5 / Table 1.
// The returned map is keyed by "data/thread" ("near/far", ...). All
// four series are compiled into a single point batch so a parallel
// campaign can overlap cells across placements.
func Fig5Placement(env Env, coreCounts []int) map[string][]ContentionPoint {
	type segment struct {
		key     string
		n       int
		lat, bw CommConfig
	}
	var (
		pts   []Point
		comms []CommConfig
		segs  []segment
	)
	for _, data := range []Placement{Near, Far} {
		for _, thread := range []Placement{Near, Far} {
			p, _ := contentionSweep(env.Spec, ContentionConfig{
				Data: data, CommThread: thread, CoreCounts: coreCounts,
			}) // default kernel: always compilable
			lat, bw := placedPingPongs(env.Spec, data, thread)
			segs = append(segs, segment{key: fmt.Sprintf("%s/%s", data, thread), n: len(p), lat: lat, bw: bw})
			pts = append(pts, p...)
			comms = append(comms, lat, bw)
		}
	}
	cells, alone := runWithSolos[ContentionPoint](env, pts, comms)
	out := make(map[string][]ContentionPoint, len(segs))
	for _, s := range segs {
		series := cells[:s.n:s.n]
		fillContention(series, alone[s.lat], alone[s.bw])
		out[s.key] = series
		cells = cells[s.n:]
	}
	return out
}

// Table1Row is the qualitative classification of one placement scheme,
// derived from the measured series as the paper's Table 1 does.
type Table1Row struct {
	Data, CommThread Placement
	// LatencyIncrease is the with-compute latency at full cores over the
	// alone latency.
	LatencyIncrease float64
	// LatencyOnset is the smallest computing-core count where latency
	// rose ≥15% above alone.
	LatencyOnset int
	// BandwidthDropFrac is 1 − (contended/alone) bandwidth at full cores.
	BandwidthDropFrac float64
	// StreamWorstLossFrac is the worst per-core STREAM loss beside the
	// bandwidth benchmark.
	StreamWorstLossFrac float64
}

// Table1 derives the paper's Table 1 from Figure 5's series.
func Table1(series map[string][]ContentionPoint) []Table1Row {
	var rows []Table1Row
	for _, data := range []Placement{Near, Far} {
		for _, thread := range []Placement{Near, Far} {
			pts := series[fmt.Sprintf("%s/%s", data, thread)]
			if len(pts) == 0 {
				continue
			}
			row := Table1Row{Data: data, CommThread: thread, LatencyOnset: -1}
			last := pts[len(pts)-1]
			if m := last.Latency.CommAlone.Median; m > 0 {
				row.LatencyIncrease = last.Latency.CommTogether.Median / m
			}
			if a := last.Bandwidth.BandwidthAlone(); a > 0 {
				row.BandwidthDropFrac = 1 - last.Bandwidth.BandwidthTogether()/a
			}
			worst := 0.0
			for _, pt := range pts {
				if pt.Latency.CommAlone.Median > 0 &&
					pt.Latency.CommTogether.Median > 1.15*pt.Latency.CommAlone.Median &&
					row.LatencyOnset < 0 {
					row.LatencyOnset = pt.Cores
				}
				if alone := pt.Bandwidth.ComputeAlone.Median; alone > 0 {
					loss := 1 - pt.Bandwidth.ComputeTogether.Median/alone
					if loss > worst {
						worst = loss
					}
				}
			}
			row.StreamWorstLossFrac = worst
			rows = append(rows, row)
		}
	}
	return rows
}

// Table1Render renders the derived Table 1.
func Table1Render(rows []Table1Row) *trace.Table {
	t := trace.NewTable("Table 1 — impact of data and communication thread placement",
		"data", "comm_thread", "latency_factor_at_full_cores", "latency_onset_cores",
		"bandwidth_drop_%", "worst_stream_loss_%")
	for _, r := range rows {
		t.Add(r.Data.String(), r.CommThread.String(),
			r.LatencyIncrease, r.LatencyOnset,
			r.BandwidthDropFrac*100, r.StreamWorstLossFrac*100)
	}
	return t
}

// SizePoint is one x-position of Figure 6: a message size with the
// protocol results at a fixed computing-core count.
type SizePoint struct {
	Size   int64
	Result InterferenceResult
}

// Fig6MessageSize reproduces Figure 6: network and STREAM performance
// as a function of the transmitted message size, for a fixed number of
// computing cores (the paper uses 5 and 35).
func Fig6MessageSize(env Env, cores int, sizes []int64) []SizePoint {
	if len(sizes) == 0 {
		for s := int64(4); s <= 64<<20; s *= 4 {
			sizes = append(sizes, s)
		}
	}
	spec := env.Spec
	dataNUMA := spec.NIC.NUMA
	commCore := spec.LastCoreOfNUMA(spec.NUMANodes() - 1)
	pts := make([]Point, 0, len(sizes))
	comms := make([]CommConfig, 0, len(sizes))
	for _, size := range sizes {
		size := size
		comm := CommConfig{
			CommCore: commCore, BufNUMA: dataNUMA,
			Size: size, Iters: pingIters(size), Warmup: 2,
		}
		comms = append(comms, comm)
		pts = append(pts, Point{
			Key: fmt.Sprintf("fig6/cores=%d/size=%d", cores, size),
			Fn: func(env Env) any {
				comp := ComputeConfig{
					Slice: kernels.StreamTriad(kernels.DefaultStreamElems, dataNUMA),
					Cores: cores,
				}
				return SizePoint{Size: size, Result: cellResults(env, comp, comm)[0]}
			},
		})
	}
	cells, alone := runWithSolos[SizePoint](env, pts, comms)
	for i := range cells {
		cells[i].Result.CommAlone = alone[comms[i]]
	}
	return cells
}

// Fig6Table renders a Figure 6 series.
func Fig6Table(cores int, points []SizePoint) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("Fig 6 — impact of message size with %d computing cores", cores),
		"size_B", "latency_us_alone", "latency_us_with_compute",
		"bandwidth_MBps_alone", "bandwidth_MBps_with_compute",
		"stream_GBps_alone", "stream_GBps_together")
	for _, pt := range points {
		r := pt.Result
		t.Add(pt.Size,
			r.CommAlone.Median*1e6, r.CommTogether.Median*1e6,
			r.BandwidthAlone()/1e6, r.BandwidthTogether()/1e6,
			r.ComputeAlone.Median/1e9, r.ComputeTogether.Median/1e9)
	}
	return t
}

// IntensityPoint is one x-position of Figure 7: an arithmetic intensity
// with the protocol results for latency and bandwidth benchmarks.
type IntensityPoint struct {
	Cursor    int
	Intensity float64 // flop/B
	Latency   InterferenceResult
	Bandwidth InterferenceResult
}

// Fig7Intensity reproduces Figure 7: the TriadX benchmark's cursor
// sweeps the arithmetic intensity from memory-bound to CPU-bound while
// running beside latency and bandwidth ping-pongs on `cores` computing
// cores (the paper uses the full node, 35).
func Fig7Intensity(env Env, cores int, cursors []int) []IntensityPoint {
	if len(cursors) == 0 {
		cursors = []int{1, 2, 4, 8, 16, 24, 36, 48, 72, 96, 144, 288, 576, 1200}
	}
	// Smaller arrays keep high-cursor iterations short.
	const elems = 1 << 20
	spec := env.Spec
	dataNUMA := spec.NIC.NUMA
	lat, bw := placedPingPongs(spec, Near, Far)
	pts := make([]Point, 0, len(cursors))
	for _, cur := range cursors {
		cur := cur
		pts = append(pts, Point{
			Key: fmt.Sprintf("fig7/elems=%d/cores=%d/cursor=%d", elems, cores, cur),
			Fn: func(env Env) any {
				slice := kernels.TriadX(elems, cur, dataNUMA)
				rs := cellResults(env, ComputeConfig{Slice: slice, Cores: cores}, lat, bw)
				return IntensityPoint{
					Cursor:    cur,
					Intensity: kernels.Intensity(slice),
					Latency:   rs[0],
					Bandwidth: rs[1],
				}
			},
		})
	}
	cells, alone := runWithSolos[IntensityPoint](env, pts, []CommConfig{lat, bw})
	for i := range cells {
		cells[i].Latency.CommAlone = alone[lat]
		cells[i].Bandwidth.CommAlone = alone[bw]
	}
	return cells
}

// Fig7Table renders Figure 7.
func Fig7Table(points []IntensityPoint) *trace.Table {
	t := trace.NewTable("Fig 7 — impact of memory pressure (arithmetic intensity) on network performance",
		"cursor", "flop_per_byte",
		"latency_us_alone", "latency_us_with_compute",
		"bandwidth_MBps_alone", "bandwidth_MBps_with_compute",
		"compute_ms_alone", "compute_ms_with_bw")
	for _, pt := range points {
		t.Add(pt.Cursor, pt.Intensity,
			pt.Latency.CommAlone.Median*1e6, pt.Latency.CommTogether.Median*1e6,
			pt.Bandwidth.BandwidthAlone()/1e6, pt.Bandwidth.BandwidthTogether()/1e6,
			pt.Bandwidth.ComputeSecsAlone.Median*1e3, pt.Bandwidth.ComputeSecsTogether.Median*1e3)
	}
	return t
}
