package mpi

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestHeartbeatDetectsCrashDeterministically(t *testing.T) {
	deadAt := make([]sim.Time, 2)
	for trial := 0; trial < 2; trial++ {
		cl, w := faultWorld(t, 7, "crash:node=1,at=1ms")
		det := w.StartHeartbeat(DefaultHeartbeat())
		cl.K.Spawn("stop", func(p *sim.Proc) {
			p.Sleep(5 * sim.Millisecond)
			det.Stop()
		})
		cl.K.Run()
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
	cl, w := faultWorld(t, 1, "")
	det := w.StartHeartbeat(DefaultHeartbeat())
	cl.K.Spawn("stop", func(p *sim.Proc) {
		p.Sleep(3 * sim.Millisecond)
		det.Stop()
	})
	cl.K.Run()
	if got := det.AliveRanks(); len(got) != 2 {
		t.Fatalf("AliveRanks in a healthy world: %v", got)
	}
	if det.DeadAt(0) != -1 || det.DeadAt(1) != -1 {
		t.Fatal("DeadAt of a live rank must be -1")
	}
	if cl.Nodes[0].Counters.PeerDeaths != 0 {
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
	cl, w := faultWorld(t, 2, "crash:node=1,at=500us")
	det := w.StartHeartbeat(DefaultHeartbeat())
	a := w.Rank(0)
	buf := a.Node.Alloc(4, a.Node.Spec.NIC.NUMA)
	var got error
	sends := 0
	cl.K.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 100000; i++ {
			if err := a.SendFT(p, 1, 9, buf, 4); err != nil {
				got = err
				break
			}
			sends++
		}
		det.Stop()
	})
	cl.K.Spawn("recv", func(p *sim.Proc) {
		b := w.Rank(1)
		rbuf := b.Node.Alloc(4, b.Node.Spec.NIC.NUMA)
		for {
			if b.RecvFT(p, 0, 9, rbuf, 4) != nil {
				return
			}
		}
	})
	cl.K.Run()
	if !errors.Is(got, ErrPeerDead) {
		t.Fatalf("SendFT to a crashed peer returned %v, want ErrPeerDead", got)
	}
	if sends == 0 {
		t.Fatal("no sends completed before the crash")
	}
	if cl.Nodes[0].Counters.PeerDeaths == 0 {
		t.Fatal("survivor did not count the peer death")
	}
}

func TestRecvFTSurfacesPeerDeath(t *testing.T) {
	// Large messages force the rendezvous path: the receiver posts, the
	// sender dies before the transfer, RecvFT must not hang.
	cl, w := faultWorld(t, 3, "crash:node=1,at=200us")
	det := w.StartHeartbeat(DefaultHeartbeat())
	a := w.Rank(0)
	buf := a.Node.Alloc(256<<10, a.Node.Spec.NIC.NUMA)
	var got error
	cl.K.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(300 * sim.Microsecond) // post after the crash, before detection
		got = a.RecvFT(p, 1, 11, buf, 256<<10)
		det.Stop()
	})
	cl.K.Run()
	if !errors.Is(got, ErrPeerDead) {
		t.Fatalf("RecvFT from a crashed peer returned %v, want ErrPeerDead", got)
	}
	// The death woke the posted receive, which must be withdrawn: a
	// message arriving later would otherwise be handed to a slot nobody
	// waits on.
	if q := a.pending[matchKey{1, 11}]; len(q) != 0 {
		t.Fatalf("%d posted receives left after the death", len(q))
	}
}
