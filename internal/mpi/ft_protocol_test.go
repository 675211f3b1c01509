package mpi

import (
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
	run := func(seed int64, spec string, ft bool) ([]outcome, float64) {
		o := twins(t, func() (*machine.Cluster, *World, []script) {
			c, w := faultWorld(t, seed, spec)
			var det *Detector
			if ft && armed {
				det = w.StartHeartbeat()
			}
			rng := rand.New(rand.NewSource(seed))
			a, b := w.Rank(0), w.Rank(1)
			abuf, bbuf := a.Node.Alloc(maxSize, 0), b.Node.Alloc(maxSize, 0)
			op := func(send bool, r *Rank, peer int, buf *machine.Buffer, size int64) act {
				switch {
				case send && ft:
					return sendFTAct(r, peer, 5, buf, size)
				case send:
					return sendAct(r, peer, 5, buf, size)
				case ft:
					return recvFTAct(r, peer, 5, buf, size)
				}
				return recvAct(r, peer, 5, buf, size)
			}
			var ping, pong []act
			for range 16 {
				s := rng.Int63n(maxSize + 1)
				ping = append(ping, op(true, a, 1, abuf, s), op(false, a, 1, abuf, s))
				pong = append(pong, op(false, b, 0, bbuf, s), op(true, b, 0, bbuf, s))
			}
			stop := func() {
				if det != nil {
					det.Stop()
				}
			}
			return c, w, []script{{acts: ping, times: 1, finally: stop}, once(pong...)}
		})
		for i, out := range o.scripts {
			if out.failed >= 0 || len(out.ends) != 32 {
				t.Fatalf("seed %d %q ft %v: script %d ran %d of 32 operations, failed with %q", seed, spec, ft, i, len(out.ends), out.err)
			}
		}
		return o.scripts, o.counters[0].SendRetries + o.counters[1].SendRetries
	}
	for _, spec := range []string{"", "loss:p=0.3", "loss:p=0.2;corrupt:p=0.2"} {
		retries := 0.0
		for seed := int64(1); seed <= 5; seed++ {
			want, r := run(seed, spec, false)
			retries += r
			got, _ := run(seed, spec, true)
			for i := range want {
				for j := range want[i].ends {
					if got[i].ends[j] != want[i].ends[j] {
						t.Fatalf("seed %d %q: script %d operation %d completed at %v, plain at %v", seed, spec, i, j, got[i].ends[j], want[i].ends[j])
					}
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
			var det *Detector
			o := twins(t, func() (*machine.Cluster, *World, []script) {
				c, w := faultWorld(t, seed, "loss:p=0.3;corrupt:p=0.1;crash:node=1,at=3ms")
				det = w.StartHeartbeat()
				a, b := w.Rank(0), w.Rank(1)
				abuf, bbuf := a.Node.Alloc(size, 0), b.Node.Alloc(size, 0)
				return c, w, []script{
					{acts: []act{sendFTAct(a, 1, 7, abuf, size), recvFTAct(a, 1, 8, abuf, size)}, times: 4000, finally: det.Stop},
					{acts: []act{recvFTAct(b, 0, 7, bbuf, size), sendFTAct(b, 0, 8, bbuf, size)}, times: -1},
				}
			})
			init := o.scripts[0]
			if init.failed < 0 {
				t.Errorf("size %d seed %d: ping-pong ended without an error, want ErrPeerDead", size, seed)
				continue
			}
			if init.err != ErrPeerDead.Error() {
				t.Errorf("size %d seed %d: ping-pong ended with %v, want ErrPeerDead", size, seed, init.err)
			}
			failedIn := "send"
			if init.failed%2 == 1 {
				failedIn = "recv"
			}
			iters := init.failed / 2
			if iters == 0 {
				t.Errorf("size %d seed %d: no iteration completed before the crash", size, seed)
			}
			got := outcome{iters, o.counters[0].MsgsLost + o.counters[1].MsgsLost, det.DeadAt(1), failedIn, init.ends[init.failed]}
			if got != wantRun {
				t.Errorf("size %d seed %d: %+v, want %+v", size, seed, got, wantRun)
			}
		}
	}
}

func TestFTDeathEndsRetransmission(t *testing.T) {
	for _, size := range []int64{4, 256 << 10} {
		var det *Detector
		o := twins(t, func() (*machine.Cluster, *World, []script) {
			c, w := faultWorld(t, 1, "loss:p=1;crash:node=1,at=100us")
			det = w.StartHeartbeat()
			r := w.Rank(0)
			return c, w, []script{{acts: []act{sendFTAct(r, 1, 7, r.Node.Alloc(size, 0), size)}, times: 1, finally: det.Stop}}
		})
		send := o.scripts[0]
		if send.err != ErrPeerDead.Error() {
			t.Errorf("size %d: SendFT returned %q, want ErrPeerDead", size, send.err)
		}
		if at := send.ends[0]; at < det.DeadAt(1) {
			t.Errorf("size %d: SendFT failed at %v, before the death was declared at %v", size, at, det.DeadAt(1))
		}
	}
}

func TestSendFTCrashMidDMA(t *testing.T) {
	const size = 8 << 20
	var det *Detector
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 1, "crash:node=1,at=1ms")
		det = w.StartHeartbeat()
		a, b := w.Rank(0), w.Rank(1)
		return c, w, []script{
			{acts: []act{sendFTAct(a, 1, 7, a.Node.Alloc(size, 0), size)}, times: -1, finally: det.Stop},
			{acts: []act{recvFTAct(b, 0, 7, b.Node.Alloc(size, 0), size)}, times: -1},
		}
	})
	send := o.scripts[0]
	if send.err != ErrPeerDead.Error() {
		t.Fatalf("SendFT returned %q, want ErrPeerDead", send.err)
	}
	if at, crash := send.ends[send.failed], sim.Time(sim.Millisecond); at != crash {
		t.Fatalf("SendFT failed at %v, want the crash instant %v (death declared at %v)", at, crash, det.DeadAt(1))
	}
}

func TestCrashedNodeDropsRTS(t *testing.T) {
	const size = 256 << 10
	var w *World
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		var c *machine.Cluster
		c, w = faultWorld(t, 1, "crash:node=1,at=100us")
		det := w.StartHeartbeat()
		r := w.Rank(0)
		return c, w, []script{{acts: []act{sleepAct(200 * sim.Microsecond), sendFTAct(r, 1, 7, r.Node.Alloc(size, 0), size)}, times: 1, finally: det.Stop}}
	})
	if err := o.scripts[0].err; err != ErrPeerDead.Error() {
		t.Fatalf("SendFT returned %q, want ErrPeerDead", err)
	}
	if q := w.Rank(1).unexp[matchKey{0, 7}]; len(q) != 0 {
		t.Fatalf("%d RTS queued on the crashed rank", len(q))
	}
}
