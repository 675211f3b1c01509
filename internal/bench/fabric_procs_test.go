package bench

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The process forms of the fabric hosts and the diameter ping: one
// process per host, blocking on the network's Start calls through
// await. They are the reference the continuation forms of fabric.go
// must match event for event (TestFabricContinuationsMatchProcesses).

// await is the blocking form of a Start call: it runs start for p,
// parks p until start's callback runs, unless it runs within the call,
// and returns the callback's outcome.
func await(p *sim.Proc, start func(then func(bool))) bool {
	var ok, ended, parked bool
	start(func(landed bool) {
		ok, ended = landed, true
		if parked {
			p.Resume()
		}
	})
	if !ended {
		parked = true
		p.Park()
	}
	return ok
}

// runFabricJobsProcs is runFabricJobs with one process per host.
func runFabricJobsProcs(c *machine.Cluster, nw *net.Network, jobs [][]int, cfg FabricConfig) []sim.Duration {
	makespans := make([]sim.Duration, len(jobs))
	for j, hosts := range jobs {
		if len(hosts) < 2 {
			continue
		}
		barrier := sim.NewSignal(c.K)
		arrived, finished := 0, 0
		bufs := make([]*machine.Buffer, len(hosts))
		for idx, h := range hosts {
			n := c.Nodes[h]
			bufs[idx] = n.Alloc(cfg.Bytes, n.Spec.NIC.NUMA)
		}
		for idx := range hosts {
			src, srcBuf := c.Nodes[hosts[idx]], bufs[idx]
			c.K.Spawn("job"+strconv.Itoa(j)+".h"+strconv.Itoa(hosts[idx]), func(p *sim.Proc) {
				for r := 0; r < cfg.Rounds; r++ {
					shift := 1
					if cfg.Shift {
						shift = 1 + r%(len(hosts)-1)
					}
					to := (idx + shift) % len(hosts)
					dst, dstBuf := c.Nodes[hosts[to]], bufs[to]
					await(p, func(then func(bool)) { nw.StartSendOverhead(src, 0, src.Spec.NIC.NUMA, then) })
					p.Sleep(src.Jitter(nw.PathLatency(src.ID, dst.ID), src.Spec.NIC.NoiseFrac))
					await(p, func(then func(bool)) { nw.StartDMA(src, srcBuf, dst, dstBuf, cfg.Bytes, then) })
					if arrived++; arrived == len(hosts) {
						arrived = 0
						barrier.Broadcast()
					} else {
						barrier.Wait(p)
					}
				}
				if finished++; finished == len(hosts) {
					makespans[j] = p.Now().Sub(0)
				}
			})
		}
	}
	c.K.Run()
	return makespans
}

// runFabricPingProc is runFabricPing as one process.
func runFabricPingProc(k *sim.Kernel, nw *net.Network, src, dst *machine.Node) (small, large sim.Duration, finished bool) {
	k.Spawn("ping", func(p *sim.Proc) {
		srcBuf := src.Alloc(64<<20, src.Spec.NIC.NUMA)
		dstBuf := dst.Alloc(64<<20, dst.Spec.NIC.NUMA)
		start := p.Now()
		await(p, func(then func(bool)) { nw.StartSendOverhead(src, 0, src.Spec.NIC.NUMA, then) })
		p.Sleep(nw.PathLatency(src.ID, dst.ID))
		await(p, func(then func(bool)) { nw.StartDMA(src, srcBuf, dst, dstBuf, 64<<10, then) })
		await(p, func(then func(bool)) { nw.StartRecvOverhead(dst, 0, dst.Spec.NIC.NUMA, then) })
		small, start = p.Now().Sub(start), p.Now()
		await(p, func(then func(bool)) { nw.StartDMA(src, srcBuf, dst, dstBuf, 64<<20, then) })
		large, finished = p.Now().Sub(start), true
	})
	k.Run()
	return small, large, finished
}

// TestFabricContinuationsMatchProcesses is the twin lock on the fabric
// hosts and the diameter ping: run as continuations, they must take the
// events their process forms take, and report the same makespans and
// the same ping latency and bandwidth, bit for bit — on small fat-tree
// and dragonfly+ fabrics, over job counts, round counts and ring
// shifts, at three seeds, healthy and under crash, hang and loss
// schedules. A crash strands a chain or a process for good; the world
// it leaves must hold the same number of paths in flight.
func TestFabricContinuationsMatchProcesses(t *testing.T) {
	schedules := []string{
		"",
		"crash:node=1,at=100us",
		"crash:node=0,at=0us",
		"crash:node=1,at=400us,for=2ms",
		"crash:node=3,at=50us;hang:node=1,at=10us,for=50us",
		"loss:p=0.05",
	}
	// twin runs one world of each form and checks that both took the
	// same events, ended at the same instant and left as many paths in
	// flight.
	twin := func(what string, env Env, fab *topology.Fabric, adaptive bool, seed int64,
		run func(c *machine.Cluster, nw *net.Network, procs bool) string) {
		t.Helper()
		var got [2]string
		for i, procs := range []bool{false, true} {
			c, nw := fabricWorld(env, fab, adaptive, seed, nil, nil)
			out := run(c, nw, procs)
			got[i] = fmt.Sprintf("%s; %d events, at %v, %d in flight", out, c.K.Steps(), c.K.Now(), nw.InFlight())
			c.K.Shutdown()
		}
		if got[0] != got[1] {
			t.Fatalf("%s:\ncontinuations: %s\nprocesses:     %s", what, got[0], got[1])
		}
	}
	for _, preset := range []string{"fattree-k4", "dflyplus-small"} {
		fab := topology.FabricPreset(preset).MustBuild()
		for _, spec := range schedules {
			env := DefaultEnv()
			if spec != "" {
				sched, err := fault.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				env.Faults = sched
			}
			for _, seed := range []int64{1, 7, 42} {
				for jobs := 1; jobs <= 4; jobs++ {
					for rounds := 1; rounds <= 3; rounds++ {
						for _, shift := range []bool{false, true} {
							cfg := FabricConfig{Preset: preset, Adaptive: jobs%2 == 0, Jobs: jobs,
								Rounds: rounds, Bytes: 256 << 10, Shift: shift}
							what := fmt.Sprintf("%s faults %q seed %d jobs %d rounds %d shift %v", preset, spec, seed, jobs, rounds, shift)
							twin(what, env, fab, cfg.Adaptive, seed, func(c *machine.Cluster, nw *net.Network, procs bool) string {
								jobs := stripedJobs(fab.NHosts, cfg.Jobs)
								if procs {
									return fmt.Sprint(runFabricJobsProcs(c, nw, jobs, cfg))
								}
								return fmt.Sprint(runFabricJobs(c, nw, jobs, cfg))
							})
						}
					}
				}
				for _, adaptive := range []bool{false, true} {
					what := fmt.Sprintf("%s ping faults %q seed %d adaptive %v", preset, spec, seed, adaptive)
					twin(what, env, fab, adaptive, seed, func(c *machine.Cluster, nw *net.Network, procs bool) string {
						src, dst := c.Nodes[0], c.Nodes[fab.NHosts-1]
						ping := runFabricPing
						if procs {
							ping = runFabricPingProc
						}
						small, large, finished := ping(c.K, nw, src, dst)
						return fmt.Sprint(small, large, finished)
					})
				}
			}
		}
	}
}

// TestFabricCrashedWorldIsRebuilt is the guard on fabricWorld's rewind:
// a ping whose source crashed for good at 0 µs leaves its overhead
// queued on the node's recovery signal, with no event and no process
// left, so the world looks drained. Every later run of the point must
// still get a freshly built world, with no path in flight, and the
// stranded one must be the recovery waiter the rewind would have
// carried over.
func TestFabricCrashedWorldIsRebuilt(t *testing.T) {
	env := DefaultEnv()
	sched, err := fault.ParseSpec("crash:node=0,at=0us")
	if err != nil {
		t.Fatal(err)
	}
	env.Faults = sched
	fab := topology.FabricPreset("fattree-k4").MustBuild()
	rec := ExecutePoint(env, Point{Key: "fabric/t/crash-rebuild", Fn: func(e Env) any {
		var c *machine.Cluster
		var nw *net.Network
		for run := 0; run < 3; run++ {
			prev, prevNet := c, nw
			c, nw = fabricWorld(e, fab, false, e.Seed+int64(run), c, nw)
			if run > 0 {
				if c == prev {
					t.Errorf("run %d rewound a world with %d paths in flight", run, nw.InFlight())
				}
				if !drained(prev) || prevNet.InFlight() != 1 {
					t.Errorf("run %d: the previous world is not idle with one stranded path", run)
				}
				prev.Nodes[0].SetDown(false)
				if prev.K.Idle() {
					t.Errorf("run %d: node 0's recovery woke nothing in the previous world", run)
				}
			}
			if nw.InFlight() != 0 {
				t.Errorf("run %d starts with %d paths in flight", run, nw.InFlight())
			}
			if _, _, finished := runFabricPing(c.K, nw, c.Nodes[0], c.Nodes[fab.NHosts-1]); finished {
				t.Errorf("run %d: a ping from a crashed node finished", run)
			}
		}
		return struct{}{}
	}})
	if rec.Panic != nil {
		t.Fatal(rec.Panic)
	}
	if rec.Worlds != 3 {
		t.Fatalf("Worlds = %d, want 3", rec.Worlds)
	}
}
