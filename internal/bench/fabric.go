package bench

// Fabric experiments: multi-job campaigns on switched fabrics. Jobs
// are placed on disjoint host sets of one shared fat-tree or
// dragonfly+ and exchange messages only within themselves, so any
// slowdown against a solo run of the same job is inter-job
// interference through shared fabric links — the Kang et al.
// phenomenology on top of the paper's intra-node model. Placement is
// striped (job j owns the hosts ≡ j mod J), which makes the collision
// structure a function of the job count: parity-striped jobs on a
// fat-tree are perfectly separated by the destination-hash routing
// (slowdown ≈ 1), while three striped jobs mix destination classes and
// collide on up-links (slowdown > 1, reduced by adaptive routing).

import (
	"fmt"
	"strconv"

	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// fabricWorld returns a cluster sized to the fabric plus its routed
// network for one run. c and nw are the world the point ran before on
// the same fabric and routing, nil on its first run. A drained one is
// rewound instead of rebuilt when the point may recycle worlds: its
// keeper seals what the world did so far, then the cluster and network
// go back to their freshly built state, which replays a fresh world's
// event sequence bit for bit. The worlds of a cell share one build of
// the fabric, which no world mutates.
func fabricWorld(env Env, fab *topology.Fabric, adaptive bool, seed int64, c *machine.Cluster, nw *net.Network) (*machine.Cluster, *net.Network) {
	if c != nil && env.keeper != nil && !env.NoPool && drained(c.K) {
		env.keeper.seal(c)
		c.Reset(env.Spec, seed)
		nw.Reset()
	} else {
		c = machine.NewCluster(env.Spec, fab.NHosts, seed)
		nw = net.NewOnFabric(c, fab, adaptive)
	}
	env.adopt(c, nw, seed)
	return c, nw
}

// FabricConfig parameterises one fabric campaign cell.
type FabricConfig struct {
	// Preset names the fabric (topology.FabricPreset).
	Preset string
	// Adaptive selects the routing policy.
	Adaptive bool
	// Jobs is the number of concurrent jobs, striped over the hosts.
	Jobs int
	// Rounds and Bytes shape each job's traffic: every round, every
	// host sends Bytes to its successor in the job's host list, with a
	// per-job barrier between rounds.
	Rounds int
	Bytes  int64
	// Shift rotates each job's ring by one extra position per round
	// (neighbor-exchange pattern); keeps link collisions varied.
	Shift bool
}

func (cfg FabricConfig) routing() string {
	if cfg.Adaptive {
		return "adaptive"
	}
	return "minimal"
}

// stripedJobs partitions hosts into j striped sets: job i owns the
// hosts ≡ i mod j, in ascending order.
func stripedJobs(hosts, j int) [][]int {
	out := make([][]int, j)
	for h := 0; h < hosts; h++ {
		out[h%j] = append(out[h%j], h)
	}
	return out
}

// runFabricJobs runs the jobs' exchange rounds concurrently on one
// world and returns each job's makespan (the instant its last round
// completed). A nil entry in jobs runs nothing and reports zero — used
// for the solo baselines.
func runFabricJobs(c *machine.Cluster, nw *net.Network, jobs [][]int, cfg FabricConfig) []sim.Duration {
	makespans := make([]sim.Duration, len(jobs))
	for j := range jobs {
		j := j
		hosts := jobs[j]
		if len(hosts) < 2 {
			continue
		}
		barrier := sim.NewSignal(c.K)
		arrived, finished := 0, 0
		// One buffer per host, on its NIC's NUMA node: a host's sends
		// read it and the transfers into it write it, every round.
		bufs := make([]*machine.Buffer, len(hosts))
		for idx, h := range hosts {
			n := c.Nodes[h]
			bufs[idx] = n.Alloc(cfg.Bytes, n.Spec.NIC.NUMA)
		}
		prefix := "job" + strconv.Itoa(j) + ".h"
		for idx := range hosts {
			idx := idx
			src := c.Nodes[hosts[idx]]
			srcBuf := bufs[idx]
			c.K.Spawn(prefix+strconv.Itoa(hosts[idx]), func(p *sim.Proc) {
				for r := 0; r < cfg.Rounds; r++ {
					shift := 1
					if cfg.Shift {
						shift = 1 + r%(len(hosts)-1)
					}
					to := (idx + shift) % len(hosts)
					dst, dstBuf := c.Nodes[hosts[to]], bufs[to]
					nw.SendOverhead(p, src, 0, src.Spec.NIC.NUMA)
					p.Sleep(src.Jitter(nw.PathLatency(src.ID, dst.ID), src.Spec.NIC.NoiseFrac))
					nw.TransferDMA(p, src, srcBuf, dst, dstBuf, cfg.Bytes)
					// Per-job barrier: the last arriver of the round
					// releases the rest (the sim kernel is cooperative,
					// so the counter needs no locking).
					arrived++
					if arrived == len(hosts) {
						arrived = 0
						barrier.Broadcast()
					} else {
						barrier.Wait(p)
					}
				}
				finished++
				if finished == len(hosts) {
					makespans[j] = p.Now().Sub(0)
				}
			})
		}
	}
	c.K.Run()
	return makespans
}

// FabricCell is the measured outcome of one fabric campaign cell,
// aggregated over runs: per-run makespans of the shared world and the
// inter-job slowdown against per-job solo baselines.
type FabricCell struct {
	Preset  string
	Routing string
	Jobs    int
	// SharedSecs is the mean over runs of the slowest job's makespan on
	// the shared fabric; AloneSecs the same job mix run solo.
	SharedSecs float64
	AloneSecs  float64
	// SlowdownMean / SlowdownMax aggregate the per-job ratios
	// shared/alone over jobs and runs.
	SlowdownMean float64
	SlowdownMax  float64
}

// fabricCell measures one (preset, routing, jobs) cell: the shared
// world with every job active, then one solo world per job with the
// identical placement, both repeated env.Runs times.
func fabricCell(env Env, cfg FabricConfig) FabricCell {
	spec := topology.FabricPreset(cfg.Preset)
	if spec == nil {
		panic(fmt.Sprintf("bench: unknown fabric preset %q", cfg.Preset))
	}
	fab := spec.MustBuild()
	hosts := fab.NHosts
	cell := FabricCell{Preset: cfg.Preset, Routing: cfg.routing(), Jobs: cfg.Jobs}
	var sumShared, sumAlone, sumRatio float64
	ratios := 0
	var c *machine.Cluster
	var nw *net.Network
	for run := 0; run < env.runs(); run++ {
		seed := env.Seed + int64(run)
		jobs := stripedJobs(hosts, cfg.Jobs)
		c, nw = fabricWorld(env, fab, cfg.Adaptive, seed, c, nw)
		shared := runFabricJobs(c, nw, jobs, cfg)
		alone := make([]sim.Duration, len(jobs))
		for j := range jobs {
			solo := make([][]int, len(jobs)) // same job index, same name, idle peers
			solo[j] = jobs[j]
			c, nw = fabricWorld(env, fab, cfg.Adaptive, seed, c, nw)
			alone[j] = runFabricJobs(c, nw, solo, cfg)[j]
		}
		var worstShared, worstAlone sim.Duration
		for j := range jobs {
			if shared[j] > worstShared {
				worstShared = shared[j]
			}
			if alone[j] > worstAlone {
				worstAlone = alone[j]
			}
			if alone[j] > 0 {
				r := shared[j].Seconds() / alone[j].Seconds()
				sumRatio += r
				ratios++
				if r > cell.SlowdownMax {
					cell.SlowdownMax = r
				}
			}
		}
		sumShared += worstShared.Seconds()
		sumAlone += worstAlone.Seconds()
	}
	cell.SharedSecs = sumShared / float64(env.runs())
	cell.AloneSecs = sumAlone / float64(env.runs())
	if ratios > 0 {
		cell.SlowdownMean = sumRatio / float64(ratios)
	}
	return cell
}

// FabricInterference measures the multi-job interference grid: every
// job count × both routing policies on one fabric preset. Each cell is
// one schedulable sweep point.
func FabricInterference(env Env, preset string, jobCounts []int) []FabricCell {
	return RunPointsAs[FabricCell](env, fabricInterferencePoints(preset, jobCounts))
}

// fabricInterferencePoints compiles the interference grid into points,
// minimal routing first.
func fabricInterferencePoints(preset string, jobCounts []int) []Point {
	var pts []Point
	for _, adaptive := range []bool{false, true} {
		for _, jobs := range jobCounts {
			cfg := FabricConfig{
				Preset: preset, Adaptive: adaptive, Jobs: jobs,
				Rounds: 3, Bytes: 4 << 20, Shift: true,
			}
			pts = append(pts, Point{
				Key: fmt.Sprintf("fabric/interference/%s/routing=%s/jobs=%d", preset, cfg.routing(), jobs),
				Fn:  func(env Env) any { return fabricCell(env, cfg) },
			})
		}
	}
	return pts
}

// FabricInterferenceTable renders the interference grid.
func FabricInterferenceTable(title string, cells []FabricCell) *trace.Table {
	t := trace.NewTable(title,
		"fabric", "routing", "jobs", "makespan_ms", "solo_ms", "slowdown_mean", "slowdown_max")
	for _, c := range cells {
		t.Add(c.Preset, c.Routing, c.Jobs, c.SharedSecs*1e3, c.AloneSecs*1e3, c.SlowdownMean, c.SlowdownMax)
	}
	return t
}

// FabricPingCell is one fabric ping measurement: a host pair at the
// fabric's diameter exchanging one small and one large transfer on an
// otherwise idle fabric.
type FabricPingCell struct {
	Preset  string
	Routing string
	Hops    int
	// SmallSecs is the completion time of a 64 KiB transfer (latency
	// regime), LargeGBs the achieved bandwidth of a 64 MiB transfer.
	SmallSecs float64
	LargeGBs  float64
}

// fabricPingCell measures one (preset, routing) diameter ping. On the
// idle fabric the adaptive row must be identical to the minimal one —
// the routing-independence property, locked into the golden file. A
// run whose ping never finishes (a crashed peer) contributes no sample:
// the cell averages the completed runs, and reports zeros if none did.
func fabricPingCell(env Env, preset string, adaptive bool) FabricPingCell {
	spec := topology.FabricPreset(preset)
	if spec == nil {
		panic(fmt.Sprintf("bench: unknown fabric preset %q", preset))
	}
	fab := spec.MustBuild()
	routing := "minimal"
	if adaptive {
		routing = "adaptive"
	}
	cell := FabricPingCell{Preset: preset, Routing: routing}
	var sumSmall, sumLarge float64
	completed := 0
	var c *machine.Cluster
	var nw *net.Network
	for run := 0; run < env.runs(); run++ {
		c, nw = fabricWorld(env, fab, adaptive, env.Seed+int64(run), c, nw)
		src, dst := c.Nodes[0], c.Nodes[fab.NHosts-1]
		cell.Hops = len(fab.Route(src.ID, dst.ID, nil, nil))
		var small, large sim.Duration
		finished := false
		c.K.Spawn("ping", func(p *sim.Proc) {
			srcBuf := src.Alloc(64<<20, src.Spec.NIC.NUMA)
			dstBuf := dst.Alloc(64<<20, dst.Spec.NIC.NUMA)
			start := p.Now()
			nw.SendOverhead(p, src, 0, src.Spec.NIC.NUMA)
			p.Sleep(nw.PathLatency(src.ID, dst.ID))
			nw.TransferDMA(p, src, srcBuf, dst, dstBuf, 64<<10)
			nw.RecvOverhead(p, dst, 0, dst.Spec.NIC.NUMA)
			small = p.Now().Sub(start)
			start = p.Now()
			nw.TransferDMA(p, src, srcBuf, dst, dstBuf, 64<<20)
			large = p.Now().Sub(start)
			finished = true
		})
		c.K.Run()
		if !finished {
			continue
		}
		sumSmall += small.Seconds()
		sumLarge += float64(64<<20) / large.Seconds() / 1e9
		completed++
	}
	if completed > 0 {
		cell.SmallSecs = sumSmall / float64(completed)
		cell.LargeGBs = sumLarge / float64(completed)
	}
	return cell
}

// FabricPingPong measures diameter pings over the given presets under
// both routing policies.
func FabricPingPong(env Env, presets []string) []FabricPingCell {
	return RunPointsAs[FabricPingCell](env, fabricPingPoints(presets))
}

// fabricPingPoints compiles the diameter pings into points, one per
// preset and routing.
func fabricPingPoints(presets []string) []Point {
	var pts []Point
	for _, preset := range presets {
		for _, adaptive := range []bool{false, true} {
			preset, adaptive := preset, adaptive
			routing := "minimal"
			if adaptive {
				routing = "adaptive"
			}
			pts = append(pts, Point{
				Key: fmt.Sprintf("fabric/pingpong/%s/routing=%s", preset, routing),
				Fn:  func(env Env) any { return fabricPingCell(env, preset, adaptive) },
			})
		}
	}
	return pts
}

// FabricPingTable renders the diameter pings. Adjacent minimal and
// adaptive rows of one preset carry identical numbers — the idle
// fabric routing-independence property, enforced by the golden file.
func FabricPingTable(cells []FabricPingCell) *trace.Table {
	t := trace.NewTable("Fabric — diameter ping on an idle fabric (minimal ≡ adaptive)",
		"fabric", "routing", "hops", "latency_us", "bandwidth_GBps")
	for _, c := range cells {
		t.Add(c.Preset, c.Routing, c.Hops, c.SmallSecs*1e6, c.LargeGBs)
	}
	return t
}
