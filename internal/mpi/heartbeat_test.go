package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestHeartbeatDetectsCrashDeterministically(t *testing.T) {
	deadAt := make([]sim.Time, 2)
	for trial := 0; trial < 2; trial++ {
		var det *Detector
		twins(t, func() (*machine.Cluster, *World, []script) {
			c, w := faultWorld(t, 7, "crash:node=1,at=1ms")
			det = w.StartHeartbeat()
			return c, w, []script{once(sleepAct(5*sim.Millisecond), callAct(det.Stop))}
		})
		if !det.Dead(1) {
			t.Fatal("crash never detected")
		}
		if det.Dead(0) {
			t.Fatal("healthy node declared dead")
		}
		at := det.DeadAt(1)
		crash := sim.Time(0).Add(sim.Millisecond)
		// Suspicion runs from the last probe that saw the peer up — up to
		// one period before the crash — and fires on a probe tick, up to
		// one period after the deadline.
		lo, hi := crash.Add(probeTimeout-probePeriod), crash.Add(probeTimeout+probePeriod)
		if at < lo || at > hi {
			t.Fatalf("detected at %v, want within [%v, %v]", at, lo, hi)
		}
		deadAt[trial] = at
		got := det.AliveRanks()
		if len(got) != 1 || got[0] != 0 {
			t.Fatalf("AliveRanks after crash: %v, want [0]", got)
		}
	}
	if deadAt[0] != deadAt[1] {
		t.Fatalf("detection instant not deterministic: %v vs %v", deadAt[0], deadAt[1])
	}
}

func TestHeartbeatHealthyWorldSeesNoDeaths(t *testing.T) {
	var det *Detector
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 1, "")
		det = w.StartHeartbeat()
		return c, w, []script{once(sleepAct(3*sim.Millisecond), callAct(det.Stop))}
	})
	if got := det.AliveRanks(); len(got) != 2 {
		t.Fatalf("AliveRanks in a healthy world: %v", got)
	}
	if det.DeadAt(0) != -1 || det.DeadAt(1) != -1 {
		t.Fatal("DeadAt of a live rank must be -1")
	}
	if o.counters[0].PeerDeaths != 0 {
		t.Fatal("PeerDeaths counted in a healthy world")
	}
}

func TestStartHeartbeatIdempotent(t *testing.T) {
	cl, w := faultWorld(t, 1, "")
	d1 := w.StartHeartbeat()
	d2 := w.StartHeartbeat()
	if d1 != d2 || w.Detector() != d1 {
		t.Fatal("StartHeartbeat must return the one detector per world")
	}
	d1.Stop()
	cl.K.Run()
}

func TestSendFTSurfacesPeerDeath(t *testing.T) {
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 2, "crash:node=1,at=500us")
		det := w.StartHeartbeat()
		a, b := w.Rank(0), w.Rank(1)
		buf := a.Node.Alloc(4, a.Node.Spec.NIC.NUMA)
		rbuf := b.Node.Alloc(4, b.Node.Spec.NIC.NUMA)
		return c, w, []script{
			{acts: []act{sendFTAct(a, 1, 9, buf, 4)}, times: 100000, finally: det.Stop},
			{acts: []act{recvFTAct(b, 0, 9, rbuf, 4)}, times: -1},
		}
	})
	send := o.scripts[0]
	if send.err != ErrPeerDead.Error() {
		t.Fatalf("SendFT to a crashed peer returned %q, want ErrPeerDead", send.err)
	}
	if send.failed == 0 {
		t.Fatal("no sends completed before the crash")
	}
	if o.counters[0].PeerDeaths == 0 {
		t.Fatal("survivor did not count the peer death")
	}
}

func TestRecvFTSurfacesPeerDeath(t *testing.T) {
	// Large messages force the rendezvous path: the receiver posts, the
	// sender dies before the transfer, RecvFT must not hang.
	var a *Rank
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 3, "crash:node=1,at=200us")
		det := w.StartHeartbeat()
		a = w.Rank(0)
		buf := a.Node.Alloc(256<<10, a.Node.Spec.NIC.NUMA)
		// Post after the crash, before detection.
		return c, w, []script{{acts: []act{sleepAct(300 * sim.Microsecond), recvFTAct(a, 1, 11, buf, 256<<10)}, times: 1, finally: det.Stop}}
	})
	if err := o.scripts[0].err; err != ErrPeerDead.Error() {
		t.Fatalf("RecvFT from a crashed peer returned %q, want ErrPeerDead", err)
	}
	// The death woke the posted receive, which must be withdrawn: a
	// message arriving later would otherwise be handed to a slot nobody
	// waits on.
	if q := a.pending[matchKey{1, 11}]; len(q) != 0 {
		t.Fatalf("%d posted receives left after the death", len(q))
	}
}

// TestHeartbeatSuspicionStartsAtArm: a peer already down when the
// detector is armed is suspected from the arm instant, so its death is
// declared a full suspicion timeout later, not at the first probe.
func TestHeartbeatSuspicionStartsAtArm(t *testing.T) {
	c, w := faultWorld(t, 1, "crash:node=1,at=500us")
	var det *Detector
	c.K.At(sim.Time(0).Add(sim.Millisecond), func() { det = w.StartHeartbeat() })
	c.K.RunUntil(sim.Time(0).Add(3 * sim.Millisecond))
	defer c.K.Shutdown()
	if want := sim.Time(0).Add(1200 * sim.Microsecond); det.DeadAt(1) != want {
		t.Fatalf("peer down since before the arm declared at %v, want %v", det.DeadAt(1), want)
	}
}

// TestArmedDetectorDrains: an armed detector that is never stopped
// schedules nothing once no undeclared rank is down, so the world
// drains with no process left: with no crash at all, after a crashed
// rank is declared dead, and after a node recovers before it is.
func TestArmedDetectorDrains(t *testing.T) {
	for _, spec := range []string{"", "hang:node=0,at=100us,for=50us", "crash:node=1,at=1ms", "crash:node=1,at=1ms,for=120us"} {
		c, w := faultWorld(t, 1, spec)
		det := w.StartHeartbeat()
		c.K.RunUntil(sim.Time(0).Add(10 * sim.Millisecond))
		if !c.K.Idle() || c.K.LiveProcs() != 0 {
			t.Errorf("%q: %d live processes, idle %v after 10ms", spec, c.K.LiveProcs(), c.K.Idle())
		}
		if dead := strings.HasSuffix(spec, "at=1ms"); det.Dead(1) != dead {
			t.Errorf("%q: rank 1 dead %v, want %v", spec, det.Dead(1), dead)
		}
		c.K.Shutdown()
	}
}

// startMonitors arms the world's detector as one monitor process per
// rank, each probing every peer each probePeriod from the arm instant
// until it finds its own node down: the process form of the probe
// timer, kept as the reference the timer must match.
func startMonitors(w *World) *Detector {
	d := newDetector(w)
	w.det = d
	for i := range w.ranks {
		w.cluster.K.Spawn(fmt.Sprintf("hb.n%d", i), func(p *sim.Proc) { monitor(d, p, i) })
	}
	return d
}

// monitor is rank self's probe loop in the reference detector.
func monitor(d *Detector, p *sim.Proc, self int) {
	lastSeen := make([]sim.Time, len(d.alive))
	for i := range lastSeen {
		lastSeen[i] = d.t0
	}
	for !d.stopped && !d.down(self) {
		now := p.Now()
		for peer := range d.alive {
			if peer == self || !d.alive[peer] {
				continue
			}
			if !d.down(peer) {
				lastSeen[peer] = now
			} else if now.Sub(lastSeen[peer]) >= probeTimeout {
				d.declareDead(peer)
			}
		}
		p.Sleep(probePeriod)
	}
}

// detection is what a detector declared in one run.
type detection struct {
	deadAt     []sim.Time
	alive      []int
	peerDeaths []float64
	// deaths lists the OnDeath calls, in order, as "rank@instant".
	deaths []string
	// scripts is what the ranks' operations observed, if any ran.
	scripts []outcome
}

// randomCrashSpec draws a schedule of one to four crash, windowed
// crash, recover and hang events over the nodes, the first a crash.
// Half the instants and windows fall on the 50us probe grid of a
// detector armed at 0, where the tie rule matters.
func randomCrashSpec(rng *rand.Rand, nodes int) string {
	us := func(max int) int {
		if rng.Intn(2) == 0 {
			return 50 * rng.Intn(max/50+1)
		}
		return rng.Intn(max + 1)
	}
	var parts []string
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		node := rng.Intn(nodes)
		kind := rng.Intn(4)
		if i == 0 {
			kind = rng.Intn(2)
		}
		switch kind {
		case 0:
			parts = append(parts, fmt.Sprintf("crash:node=%d,at=%dus", node, us(2000)))
		case 1:
			parts = append(parts, fmt.Sprintf("crash:node=%d,at=%dus,for=%dus", node, us(2000), 1+us(400)))
		case 2:
			parts = append(parts, fmt.Sprintf("recover:node=%d,at=%dus", node, us(2000)))
		case 3:
			parts = append(parts, fmt.Sprintf("hang:node=%d,at=%dus,for=%dus", node, us(2000), 1+us(400)))
		}
	}
	return strings.Join(parts, ";")
}

// detect runs a world of the given nodes under spec to 3ms, with the
// detector that arm arms at armAt and, when traffic is set, a 2-rank
// fault-tolerant ping-pong running from t = 0, and reports what the
// detector declared and the operations observed.
func detect(t *testing.T, nodes int, spec string, armAt sim.Time, traffic bool, arm func(*World) *Detector) detection {
	c, w := faultWorldOf(t, nodes, 1, spec)
	defer c.K.Shutdown()
	var det *Detector
	var deaths []string
	start := func() {
		det = arm(w)
		det.OnDeath(func(r int) { deaths = append(deaths, fmt.Sprintf("%d@%v", r, c.K.Now())) })
	}
	if armAt == 0 {
		start()
	} else {
		c.K.At(armAt, start)
	}
	var outs []outcome
	if traffic {
		a, b := w.Rank(0), w.Rank(1)
		abuf := a.Node.Alloc(4, a.Node.Spec.NIC.NUMA)
		bbuf := b.Node.Alloc(4, b.Node.Spec.NIC.NUMA)
		outs = startChains(c, []script{
			{acts: []act{sendFTAct(a, 1, 9, abuf, 4), recvFTAct(a, 1, 10, abuf, 4)}, times: -1},
			{acts: []act{recvFTAct(b, 0, 9, bbuf, 4), sendFTAct(b, 0, 10, bbuf, 4)}, times: -1},
		})
	}
	c.K.RunUntil(sim.Time(0).Add(3 * sim.Millisecond))
	o := detection{alive: det.AliveRanks(), deaths: deaths, scripts: outs}
	for i := 0; i < nodes; i++ {
		o.deadAt = append(o.deadAt, det.DeadAt(i))
		o.peerDeaths = append(o.peerDeaths, c.Nodes[i].Counters.PeerDeaths)
	}
	return o
}

// TestDetectorMatchesProcessMonitors runs a storm of random crash
// schedules over 2 to 4 nodes, the detector armed at 0 or later, and
// requires the timer detector to declare exactly what the process
// monitors declare: the same deaths at the same instants, in the same
// order, counted on the same survivors. Over 2 nodes with fault-tolerant
// ping-pong traffic, every operation must also end at the same instant
// with the same error.
func TestDetectorMatchesProcessMonitors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials, declared := 1200, 0
	for trial := 0; trial < trials; trial++ {
		traffic := trial%4 == 0
		nodes := 2
		if !traffic {
			nodes += rng.Intn(3)
		}
		spec := randomCrashSpec(rng, nodes)
		var armAt sim.Time
		if rng.Intn(2) == 0 {
			armAt = sim.Time(rng.Int63n(int64(sim.Millisecond) + 1))
		}
		ref := detect(t, nodes, spec, armAt, traffic, startMonitors)
		got := detect(t, nodes, spec, armAt, traffic, (*World).StartHeartbeat)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d nodes, %q, armed at %v:\ntimer    %+v\nmonitors %+v", nodes, spec, armAt, got, ref)
		}
		if len(ref.deaths) > 0 {
			declared++
		}
	}
	// The storm must exercise declarations, not only their absence.
	if declared < trials/4 {
		t.Fatalf("only %d of %d trials declared a death", declared, trials)
	}
	t.Logf("%d of %d trials declared a death", declared, trials)
}
