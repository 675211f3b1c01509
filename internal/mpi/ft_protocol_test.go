package mpi

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestFTDegradesToPlainOpsWithoutDetector: with no heartbeat armed,
// SendFT/RecvFT are the plain operations. They never error and complete
// every operation at the same instant as Send/Recv, over eager and
// rendezvous sizes, healthy and lossy schedules.
func TestFTDegradesToPlainOpsWithoutDetector(t *testing.T) {
	checkFTMatchesPlain(t, false)
}

// TestFTMatchesPlainOps: an armed detector that never declares a death
// (no crash is scheduled) leaves the fault-tolerant operations on the
// plain protocol's completion instants.
func TestFTMatchesPlainOps(t *testing.T) {
	checkFTMatchesPlain(t, true)
}

// checkFTMatchesPlain runs a random 0-200 KB ping-pong with Send/Recv and
// again with SendFT/RecvFT (with or without an armed detector) under
// schedules "", loss and loss+corruption at seeds 1-5, and fails on the
// first operation whose completion instant differs.
func checkFTMatchesPlain(t *testing.T, armed bool) {
	const maxSize = 200 << 10
	run := func(seed int64, spec string, ft bool) ([]sim.Time, float64) {
		c, w := faultWorld(t, seed, spec)
		var det *Detector
		if ft && armed {
			det = w.StartHeartbeat(DefaultHeartbeat())
		}
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int64, 16)
		for i := range sizes {
			sizes[i] = rng.Int63n(maxSize + 1)
		}
		send := func(p *sim.Proc, r *Rank, peer int, buf *machine.Buffer, size int64) {
			if !ft {
				r.Send(p, peer, 5, buf, size)
			} else if err := r.SendFT(p, peer, 5, buf, size); err != nil {
				t.Errorf("seed %d %q: SendFT: %v", seed, spec, err)
			}
		}
		recv := func(p *sim.Proc, r *Rank, peer int, buf *machine.Buffer, size int64) {
			if !ft {
				r.Recv(p, peer, 5, buf, size)
			} else if err := r.RecvFT(p, peer, 5, buf, size); err != nil {
				t.Errorf("seed %d %q: RecvFT: %v", seed, spec, err)
			}
		}
		var at []sim.Time
		a, b := w.Rank(0), w.Rank(1)
		c.K.Spawn("ping", func(p *sim.Proc) {
			buf := a.Node.Alloc(maxSize, 0)
			for _, s := range sizes {
				send(p, a, 1, buf, s)
				at = append(at, p.Now())
				recv(p, a, 1, buf, s)
				at = append(at, p.Now())
			}
			if det != nil {
				det.Stop()
			}
		})
		c.K.Spawn("pong", func(p *sim.Proc) {
			buf := b.Node.Alloc(maxSize, 0)
			for _, s := range sizes {
				recv(p, b, 0, buf, s)
				at = append(at, p.Now())
				send(p, b, 0, buf, s)
				at = append(at, p.Now())
			}
		})
		c.K.Run()
		if len(at) != 4*len(sizes) {
			t.Fatalf("seed %d %q ft %v: %d of %d operations completed", seed, spec, ft, len(at), 4*len(sizes))
		}
		return at, a.Node.Counters.SendRetries + b.Node.Counters.SendRetries
	}
	for _, spec := range []string{"", "loss:p=0.3", "loss:p=0.2;corrupt:p=0.2"} {
		retries := 0.0
		for seed := int64(1); seed <= 5; seed++ {
			want, r := run(seed, spec, false)
			retries += r
			got, _ := run(seed, spec, true)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %q: operation %d completed at %v, plain at %v", seed, spec, i, got[i], want[i])
				}
			}
		}
		if spec != "" && retries == 0 {
			t.Fatalf("%q: no retransmission in 5 seeds; the lossy paths went untested", spec)
		}
	}
}

// TestFTLossyCrash runs the fault-tolerant ping-pong under a lossy
// schedule whose responder node crashes: the retransmission loops and
// the detector-watched waits must combine into an ErrPeerDead return,
// with the per-seed outcome pinned.
func TestFTLossyCrash(t *testing.T) {
	// failedIn names the initiator call that returned ErrPeerDead;
	// failedAt is the instant it returned.
	type outcome struct {
		iters    int
		lost     float64
		deadAt   sim.Time
		failedIn string
		failedAt sim.Time
	}
	const dead = sim.Time(3150 * sim.Microsecond)
	want := map[int64][]outcome{ // per size, seeds 1-5
		4: {
			{39, 40, dead, "recv", dead}, {89, 65, dead, "recv", dead}, {55, 56, dead, "recv", dead},
			{46, 48, dead, "recv", dead}, {59, 54, dead, "recv", dead},
		},
		256 << 10: {
			{11, 28, dead, "send", 3155916}, {14, 31, dead, "recv", dead}, {10, 31, dead, "recv", dead},
			{15, 38, dead, "recv", dead}, {11, 32, dead, "send", 3167289},
		},
	}
	for size, outcomes := range want {
		for i, wantRun := range outcomes {
			seed := int64(i + 1)
			c, w := faultWorld(t, seed, "loss:p=0.3;corrupt:p=0.1;crash:node=1,at=3ms")
			det := w.StartHeartbeat(DefaultHeartbeat())
			const maxIters = 4000
			iters, failedIn := 0, ""
			var err error
			var failedAt sim.Time
			c.K.Spawn("init", func(p *sim.Proc) {
				r := w.Rank(0)
				buf := r.Node.Alloc(size, 0)
				for ; iters < maxIters; iters++ {
					if err = r.SendFT(p, 1, 7, buf, size); err != nil {
						failedIn = "send"
						break
					}
					if err = r.RecvFT(p, 1, 8, buf, size); err != nil {
						failedIn = "recv"
						break
					}
				}
				failedAt = p.Now()
				det.Stop()
			})
			c.K.Spawn("resp", func(p *sim.Proc) {
				r := w.Rank(1)
				buf := r.Node.Alloc(size, 0)
				for r.RecvFT(p, 0, 7, buf, size) == nil && r.SendFT(p, 0, 8, buf, size) == nil {
				}
			})
			c.K.Run()
			if iters == 0 {
				t.Errorf("size %d seed %d: no iteration completed before the crash", size, seed)
			}
			if !errors.Is(err, ErrPeerDead) {
				t.Errorf("size %d seed %d: ping-pong ended with %v, want ErrPeerDead", size, seed, err)
			}
			got := outcome{iters, c.Nodes[0].Counters.MsgsLost + c.Nodes[1].Counters.MsgsLost, det.DeadAt(1), failedIn, failedAt}
			if got != wantRun {
				t.Errorf("size %d seed %d: %+v, want %+v", size, seed, got, wantRun)
			}
		}
	}
}

// TestFTDeathEndsRetransmission: under total loss, a death declared
// between retransmission attempts ends the eager and the RTS retry
// loops with ErrPeerDead at the next attempt, before the retry budget
// runs out.
func TestFTDeathEndsRetransmission(t *testing.T) {
	for _, size := range []int64{4, 256 << 10} {
		c, w := faultWorld(t, 1, "loss:p=1;crash:node=1,at=100us")
		det := w.StartHeartbeat(DefaultHeartbeat())
		var err error
		var at sim.Time
		c.K.Spawn("send", func(p *sim.Proc) {
			r := w.Rank(0)
			err = r.SendFT(p, 1, 7, r.Node.Alloc(size, 0), size)
			at = p.Now()
			det.Stop()
		})
		c.K.Run()
		if !errors.Is(err, ErrPeerDead) {
			t.Errorf("size %d: SendFT returned %v, want ErrPeerDead", size, err)
		}
		if at < det.DeadAt(1) {
			t.Errorf("size %d: SendFT failed at %v, before the death was declared at %v", size, at, det.DeadAt(1))
		}
	}
}

// TestSendFTCrashMidDMA: a crash that cuts a rendezvous send's RDMA
// write fails the send at the crash instant, before the detector
// declares the death.
func TestSendFTCrashMidDMA(t *testing.T) {
	const size = 8 << 20
	c, w := faultWorld(t, 1, "crash:node=1,at=1ms")
	det := w.StartHeartbeat(DefaultHeartbeat())
	var err error
	var at sim.Time
	c.K.Spawn("send", func(p *sim.Proc) {
		r := w.Rank(0)
		buf := r.Node.Alloc(size, 0)
		for err == nil {
			err = r.SendFT(p, 1, 7, buf, size)
		}
		at = p.Now()
		det.Stop()
	})
	c.K.Spawn("recv", func(p *sim.Proc) {
		r := w.Rank(1)
		buf := r.Node.Alloc(size, 0)
		for r.RecvFT(p, 0, 7, buf, size) == nil {
		}
	})
	c.K.Run()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("SendFT returned %v, want ErrPeerDead", err)
	}
	if crash := sim.Time(sim.Millisecond); at != crash {
		t.Fatalf("SendFT failed at %v, want the crash instant %v (death declared at %v)", at, crash, det.DeadAt(1))
	}
}

// TestCrashedNodeDropsRTS: an RTS reaching a crashed node is dropped by
// its NIC, so the rendezvous leaves nothing queued on the dead rank.
func TestCrashedNodeDropsRTS(t *testing.T) {
	const size = 256 << 10
	c, w := faultWorld(t, 1, "crash:node=1,at=100us")
	det := w.StartHeartbeat(DefaultHeartbeat())
	var err error
	c.K.Spawn("send", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		r := w.Rank(0)
		err = r.SendFT(p, 1, 7, r.Node.Alloc(size, 0), size)
		det.Stop()
	})
	c.K.Run()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("SendFT returned %v, want ErrPeerDead", err)
	}
	if q := w.Rank(1).unexp[matchKey{0, 7}]; len(q) != 0 {
		t.Fatalf("%d RTS queued on the crashed rank", len(q))
	}
}
