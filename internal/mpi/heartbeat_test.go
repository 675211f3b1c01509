package mpi

import (
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
			det = w.StartHeartbeat(DefaultHeartbeat())
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
		cfg := DefaultHeartbeat()
		// Suspicion runs from the last probe that saw the peer up — up to
		// one period before the crash — and fires on a probe tick, up to
		// one period after the deadline.
		lo, hi := crash.Add(cfg.Timeout-cfg.Period), crash.Add(cfg.Timeout+cfg.Period)
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
		det = w.StartHeartbeat(DefaultHeartbeat())
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
	d1 := w.StartHeartbeat(DefaultHeartbeat())
	d2 := w.StartHeartbeat(HeartbeatConfig{Period: sim.Millisecond})
	if d1 != d2 || w.Detector() != d1 {
		t.Fatal("StartHeartbeat must return the one detector per world")
	}
	d1.Stop()
	cl.K.Run()
}

func TestSendFTSurfacesPeerDeath(t *testing.T) {
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 2, "crash:node=1,at=500us")
		det := w.StartHeartbeat(DefaultHeartbeat())
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
		det := w.StartHeartbeat(DefaultHeartbeat())
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
