// Package core ties the substrates together: it registers one runnable
// experiment per table/figure of the paper and renders their results as
// tables. The root package and cmd/interference are thin wrappers over
// this registry.
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Experiment is one reproducible unit of the paper's evaluation.
type Experiment struct {
	// ID is the short handle ("fig4", "tab1", "sec5.2").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Sweep describes the experiment's parameter grid as compiled into
	// independently schedulable points (see bench.Point). Every
	// experiment is a sweep: it builds no world outside a point.
	Sweep string
	// Run executes the experiment and returns the result tables.
	Run func(env bench.Env) []*trace.Table
}

// registry holds all experiments, keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment %q", e.ID))
	}
	registry[e.ID] = e
}

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FaultFamily returns the IDs of the fault-injection experiments, the
// default set when the harness is invoked with -faults but no -exp.
func FaultFamily() []string {
	var ids []string
	for _, e := range Experiments() {
		if strings.HasPrefix(e.ID, "faults-") {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Env builds a benchmark environment for a named cluster preset.
func Env(cluster string, seed int64, runs int) (bench.Env, error) {
	spec := topology.Preset(cluster)
	if spec == nil {
		return bench.Env{}, fmt.Errorf("core: unknown cluster %q (have henri, bora, billy, pyxis)", cluster)
	}
	return bench.Env{Spec: spec, Seed: seed, Runs: runs}, nil
}

// RenderTables renders tables to a string in the chosen format ("ascii"
// or "csv"). The string is exactly what WriteTables would emit, which
// is also the byte-for-byte content of the golden files in results/.
func RenderTables(format string, tables []*trace.Table) (string, error) {
	var b strings.Builder
	if err := WriteTables(&b, format, tables); err != nil {
		return "", err
	}
	return b.String(), nil
}

// WriteTables renders tables to w in the chosen format ("ascii" or
// "csv").
func WriteTables(w io.Writer, format string, tables []*trace.Table) error {
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		var err error
		switch format {
		case "csv":
			if t.Title != "" {
				if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
					return err
				}
			}
			err = t.WriteCSV(w)
		default:
			err = t.WriteASCII(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Impact of constant core/uncore frequencies on network latency and bandwidth (§3.1)",
		Sweep: "points: 2 core-freqs x 2 uncore-freqs x 5 sizes",
		Run: func(env bench.Env) []*trace.Table {
			sizes := []int64{4, 64 << 10, 1 << 20, 16 << 20, 64 << 20}
			return []*trace.Table{bench.Fig1Table(bench.Fig1Frequencies(env, sizes))}
		},
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Frequency traces: communications only, idle, communications + 20 computing cores (§3.2)",
		Sweep: "points: 3 trace cases + 2 bandwidth probes",
		Run: func(env bench.Env) []*trace.Table {
			r := bench.Fig2FrequencyTrace(env)
			summary := trace.NewTable("Fig 2 — communication performance with CPU-bound computation",
				"metric", "alone", "with_computation")
			summary.Add("latency_us", r.LatencyAlone.Median*1e6, r.LatencyTogether.Median*1e6)
			summary.Add("bandwidth_MBps", r.BandwidthAlone/1e6, r.BandwidthTogether/1e6)
			summary.Add("compute_ms_per_iter", "-", r.ComputeSecs.Median*1e3)
			tt := trace.NewTable("Fig 2 — frequency trace samples (case, time_us, core, GHz)",
				"case", "time_us", "core", "GHz")
			for _, tc := range []struct {
				name    string
				samples []freqSample
			}{
				{"A-comm-only", toFreqSamples(r.TraceA)},
				{"B-idle", toFreqSamples(r.TraceB)},
				{"C-comm+compute", toFreqSamples(r.TraceC)},
			} {
				for _, s := range condense(tc.samples) {
					tt.Add(tc.name, float64(s.at)/1e3, s.core, s.ghz)
				}
			}
			return []*trace.Table{summary, tt}
		},
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Impact of AVX-512 computations on network latency with turbo-boost (§3.3)",
		Sweep: "points: 2 core counts",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.Fig3Table(bench.Fig3AVX(env, []int{4, 20}))}
		},
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Memory-bound computations vs network performance by computing-core count (§4.2)",
		Sweep: "points: 1 per computing-core count",
		Run: func(env bench.Env) []*trace.Table {
			pts := bench.Fig4Contention(env, bench.ContentionConfig{
				Data: bench.Near, CommThread: bench.Far, CoreCounts: defaultCoreSweep(env),
			})
			return []*trace.Table{bench.ContentionTable(
				"Fig 4 — STREAM TRIAD vs ping-pongs (data near NIC, comm thread far)", pts)}
		},
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Impact of communication-thread placement and data locality (§4.3)",
		Sweep: "points: 4 placements x core counts (one shared batch)",
		Run: func(env bench.Env) []*trace.Table {
			series := bench.Fig5Placement(env, defaultCoreSweep(env))
			var tables []*trace.Table
			for _, key := range []string{"near/near", "near/far", "far/near", "far/far"} {
				tables = append(tables, bench.ContentionTable(
					fmt.Sprintf("Fig 5 — data %s, comm thread %s", split(key, 0), split(key, 1)),
					series[key]))
			}
			tables = append(tables, bench.Table1Render(bench.Table1(series)))
			return tables
		},
	})
	register(Experiment{
		ID:    "tab1",
		Title: "Summary of placement impact (Table 1, derived from Fig 5 sweeps)",
		Sweep: "points: 4 placements x 5 core counts (cells shared with fig5)",
		Run: func(env bench.Env) []*trace.Table {
			series := bench.Fig5Placement(env, []int{1, 5, 15, 25, fullCores(env)})
			return []*trace.Table{bench.Table1Render(bench.Table1(series))}
		},
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Impact of transmitted data size on memory contention (§4.4)",
		Sweep: "points: 2 core counts x 13 message sizes",
		Run: func(env bench.Env) []*trace.Table {
			var tables []*trace.Table
			for _, cores := range []int{5, fullCores(env)} {
				pts := bench.Fig6MessageSize(env, cores, nil)
				tables = append(tables, bench.Fig6Table(cores, pts))
			}
			return tables
		},
	})
	register(Experiment{
		ID:    "fig7",
		Title: "From CPU- to memory-bound: tunable arithmetic intensity (§4.5)",
		Sweep: "points: 14 intensity cursors",
		Run: func(env bench.Env) []*trace.Table {
			pts := bench.Fig7Intensity(env, fullCores(env), nil)
			return []*trace.Table{bench.Fig7Table(pts)}
		},
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Impact of data locality and thread placement on StarPU latency (§5.3)",
		Sweep: "points: 4 placements",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.Fig8Table(bench.Fig8Runtime(env))}
		},
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Impact of polling workers on network latency (§5.4)",
		Sweep: "points: 4 polling configs",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.Fig9Table(bench.Fig9Polling(env))}
		},
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Network sends and memory stalls of CG and GEMM executions (§6)",
		Sweep: "points: 2 kernels x worker counts",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.Fig10Table(bench.Fig10Kernels(env, nil))}
		},
	})
	register(Experiment{
		ID:    "ablation",
		Title: "Ablation: which model mechanism carries which Fig 4 result",
		Sweep: "points: 5 model variants",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.Ablation(env)}
		},
	})
	register(Experiment{
		ID:    "ext-collectives",
		Title: "EXTENSION: collectives under memory contention (beyond the paper's p2p scope)",
		Sweep: "points: 2 ops x 3 node counts",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.ExtCollectives(env)}
		},
	})
	register(Experiment{
		ID:    "ext-energy",
		Title: "EXTENSION [14]: energy vs performance of frequency scaling in communication phases",
		Sweep: "points: 2 phases x 2 frequencies",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.ExtEnergy(env)}
		},
	})
	register(Experiment{
		ID:    "ext-tuner",
		Title: "EXTENSION §8: automatic worker-count selection for whole-program performance",
		Sweep: "points: 1 per worker count",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.ExtTuner(env)}
		},
	})
	register(Experiment{
		ID:    "ext-throttle",
		Title: "EXTENSION §8: pausing workers during communication phases",
		Sweep: "points: 4 throttle levels",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.ExtThrottle(env)}
		},
	})
	register(Experiment{
		ID:    "ext-sched",
		Title: "EXTENSION §8: NUMA-local task scheduling vs central FIFO",
		Sweep: "points: 2 scheduler policies",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.ExtScheduler(env)}
		},
	})
	register(Experiment{
		ID:    "ext-overlap",
		Title: "EXTENSION [7]: communication/computation overlap benchmark",
		Sweep: "points: 4 message sizes",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.ExtOverlap(env)}
		},
	})
	register(Experiment{
		ID:    "faults-pingpong",
		Title: "FAULTS: ping-pong latency and bandwidth degradation vs fault intensity",
		Sweep: "points: 1 per fault scenario",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.FaultsPingPong(env)}
		},
	})
	register(Experiment{
		ID:    "faults-overlap",
		Title: "FAULTS: communication/computation overlap under fault scenarios",
		Sweep: "points: 1 per fault scenario",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.FaultsOverlap(env)}
		},
	})
	register(Experiment{
		ID:    "faults-crash-pingpong",
		Title: "FAULTS: ping-pong under peer node crash (heartbeat detection, ErrPeerDead)",
		Sweep: "points: 1 per crash scenario",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.CrashPingPong(env)}
		},
	})
	register(Experiment{
		ID:    "faults-crash-cg",
		Title: "FAULTS: resilient CG surviving a node crash (checkpoint rollback + task re-execution)",
		Sweep: "points: healthy run, then the crash at 40% of its elapsed time",
		Run: func(env bench.Env) []*trace.Table {
			return []*trace.Table{bench.CrashCG(env)}
		},
	})
	register(Experiment{
		ID:    "fabric-pingpong",
		Title: "FABRIC: diameter ping on idle fat-tree and dragonfly+ (minimal ≡ adaptive routing)",
		Sweep: "points: 2 presets x 2 routing policies",
		Run: func(env bench.Env) []*trace.Table {
			cells := bench.FabricPingPong(env, []string{"fattree-k4", "dflyplus-small"})
			return []*trace.Table{bench.FabricPingTable(cells)}
		},
	})
	register(Experiment{
		ID:    "fabric-interference",
		Title: "FABRIC: inter-job slowdown of striped jobs sharing a fat-tree (Kang-style)",
		Sweep: "points: 3 job counts x 2 routing policies",
		Run: func(env bench.Env) []*trace.Table {
			cells := bench.FabricInterference(env, "fattree-k4", []int{1, 2, 3})
			return []*trace.Table{bench.FabricInterferenceTable(
				"Fabric — inter-job interference on fat-tree k=4 (16 hosts, striped placement)", cells)}
		},
	})
	register(Experiment{
		ID:    "fabric-dfly",
		Title: "FABRIC: inter-job slowdown of striped jobs sharing a dragonfly+",
		Sweep: "points: 3 job counts x 2 routing policies",
		Run: func(env bench.Env) []*trace.Table {
			cells := bench.FabricInterference(env, "dflyplus-small", []int{1, 2, 3})
			return []*trace.Table{bench.FabricInterferenceTable(
				"Fabric — inter-job interference on dragonfly+ 4x2x2 (16 hosts, striped placement)", cells)}
		},
	})
	register(Experiment{
		ID:    "sec5.2",
		Title: "Latency overhead of the task-based runtime (§5.2)",
		Sweep: "points: 1 (raw MPI vs runtime latency)",
		Run: func(env bench.Env) []*trace.Table {
			r := bench.RuntimeOverhead(env)
			t := trace.NewTable("§5.2 — runtime system latency overhead",
				"cluster", "raw_MPI_us", "runtime_us", "overhead_us")
			t.Add(r.Cluster, r.RawLatency.Median*1e6, r.RuntimeLatency.Median*1e6,
				r.OverheadSeconds*1e6)
			return []*trace.Table{t}
		},
	})
}

// defaultCoreSweep returns the x-axis of the contention figures: every
// core count from 1 to cores−1 on small machines, a thinned sweep on
// 64-core ones.
func defaultCoreSweep(env bench.Env) []int {
	full := fullCores(env)
	var out []int
	step := 1
	if full > 40 {
		step = 2
	}
	for n := 1; n <= full; n += step {
		out = append(out, n)
	}
	if out[len(out)-1] != full {
		out = append(out, full)
	}
	return out
}

// fullCores is the maximum computing-core count: every core except the
// communication one.
func fullCores(env bench.Env) int { return env.Spec.Cores() - 1 }

func split(s string, i int) string {
	parts := [2]string{}
	j := 0
	for _, r := range s {
		if r == '/' {
			j = 1
			continue
		}
		parts[j] += string(r)
	}
	return parts[i]
}
