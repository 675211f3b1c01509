package mpi

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/topology"
)

// faultWorld builds a noise-free 2-node henri world with the given fault
// schedule installed.
func faultWorld(t *testing.T, seed int64, spec string) (*machine.Cluster, *World) {
	t.Helper()
	return faultWorldOf(t, 2, seed, spec)
}

// faultWorldOf is faultWorld with the given number of nodes.
func faultWorldOf(t *testing.T, nodes int, seed int64, spec string) (*machine.Cluster, *World) {
	t.Helper()
	ts := topology.Henri()
	ts.NIC.NoiseFrac = 0
	c := machine.NewCluster(ts, nodes, seed)
	nw := net.New(c)
	if spec != "" {
		s, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.InstallFaults(fault.NewInjector(c, s, seed))
	}
	return c, NewWorld(c, nw)
}

func TestLossyEagerRetransmitsAndCompletes(t *testing.T) {
	var a *Rank
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 1, "loss:p=0.5")
		var b *Rank
		a, b = w.Rank(0), w.Rank(1)
		buf := a.Node.Alloc(4096, 0)
		rbuf := b.Node.Alloc(4096, 0)
		return c, w, []script{
			{acts: []act{sendAct(a, 1, 5, buf, 4096)}, times: 20},
			{acts: []act{recvAct(b, 0, 5, rbuf, 4096)}, times: 20},
		}
	})
	if len(o.scripts[1].ends) != 20 {
		t.Fatal("receives never completed under 50% loss")
	}
	cnt := a.Node.Counters
	if cnt.SendRetries == 0 || cnt.MsgsLost == 0 {
		t.Fatalf("no recovery recorded: retries=%v lost=%v", cnt.SendRetries, cnt.MsgsLost)
	}
	if cnt.SendTimeouts != cnt.SendRetries {
		t.Fatalf("every completed send's timeouts should equal retries: timeouts=%v retries=%v",
			cnt.SendTimeouts, cnt.SendRetries)
	}
	if got := o.counters[1].BytesReceived; got != 20*4096 {
		t.Fatalf("BytesReceived %v, want %v", got, 20*4096)
	}
}

func TestLossyRendezvousRecoversHandshake(t *testing.T) {
	const size = 256 << 10 // > EagerMax: rendezvous
	o := twins(t, func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 3, "loss:p=0.4;corrupt:p=0.1")
		a, b := w.Rank(0), w.Rank(1)
		buf := a.Node.Alloc(size, 0)
		rbuf := b.Node.Alloc(size, 0)
		return c, w, []script{
			{acts: []act{sendAct(a, 1, 9, buf, size)}, times: 10},
			{acts: []act{recvAct(b, 0, 9, rbuf, size)}, times: 10},
		}
	})
	if len(o.scripts[1].ends) != 10 {
		t.Fatal("rendezvous receives never completed under RTS/CTS loss")
	}
	a, b := o.counters[0], o.counters[1]
	if a.MsgsLost+a.MsgsCorrupted+b.MsgsLost+b.MsgsCorrupted == 0 {
		t.Fatal("no control-message faults recorded at p=0.5 combined")
	}
	if got := b.BytesReceived; got != 10*size {
		t.Fatalf("BytesReceived %v, want %v", got, 10*size)
	}
}

func TestRetryExhaustionFailsTransfer(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int64
		op   string
	}{
		{"eager", 4096, "eager"},
		{"rendezvous", 256 << 10, "rendezvous"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Without a detector SendFT runs Send's protocol, and returns
			// the failure Send panics with.
			o := twins(t, func() (*machine.Cluster, *World, []script) {
				c, w := faultWorld(t, 1, "loss:p=1")
				a, b := w.Rank(0), w.Rank(1)
				return c, w, []script{
					once(sendFTAct(a, 1, 5, a.Node.Alloc(tc.size, 0), tc.size)),
					once(recvFTAct(b, 0, 5, b.Node.Alloc(tc.size, 0), tc.size)),
				}
			})
			if msg := o.scripts[0].err; !strings.Contains(msg, "failed after 9 attempts") || !strings.Contains(msg, tc.op) {
				t.Fatalf("SendFT failed with %q, want %s TransferError after 9 attempts", msg, tc.op)
			}

			c, w := faultWorld(t, 1, "loss:p=1")
			a, b := w.Rank(0), w.Rank(1)
			buf := a.Node.Alloc(tc.size, 0)
			rbuf := b.Node.Alloc(tc.size, 0)
			c.K.Spawn("send", func(p *sim.Proc) { a.Send(p, 1, 5, buf, tc.size) })
			c.K.Spawn("recv", func(p *sim.Proc) { b.Recv(p, 0, 5, rbuf, tc.size) })
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "failed after 9 attempts") || !strings.Contains(msg, tc.op) {
					t.Fatalf("panic %q, want %s TransferError after 9 attempts", msg, tc.op)
				}
			}()
			c.K.Run()
			t.Fatal("total loss did not fail the transfer")
		})
	}
}

func TestLossyPingPongDeterministic(t *testing.T) {
	run := func(seed int64) ([]sim.Duration, float64) {
		var w *World
		lats, _ := runPingPongTwins(t, func() (*machine.Cluster, *World) {
			c, ww := faultWorld(t, seed, "loss:p=0.3")
			w = ww
			return c, ww
		}, &PingPong{Size: 4096, Iters: 20, Warmup: 2})
		return lats, w.Rank(0).Node.Counters.SendRetries + w.Rank(1).Node.Counters.SendRetries
	}
	lats1, retries1 := run(1)
	lats2, retries2 := run(1)
	if retries1 == 0 {
		t.Fatal("no retries at p=0.3; faults not injected?")
	}
	if retries1 != retries2 {
		t.Fatalf("same seed, different retry counts: %v != %v", retries1, retries2)
	}
	for i := range lats1 {
		if lats1[i] != lats2[i] {
			t.Fatalf("same seed, latency %d differs: %v != %v", i, lats1[i], lats2[i])
		}
	}
	lats3, _ := run(2)
	same := true
	for i := range lats1 {
		if lats1[i] != lats3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical lossy latencies")
	}
}

func TestDegradeSlowsTransfersWithoutLossPath(t *testing.T) {
	run := func(spec string) (sim.Time, float64) {
		o := twins(t, func() (*machine.Cluster, *World, []script) {
			c, w := faultWorld(t, 1, spec)
			a, b := w.Rank(0), w.Rank(1)
			const size = 4 << 20
			return c, w, []script{
				once(sendAct(a, 1, 5, a.Node.Alloc(size, 0), size)),
				once(recvAct(b, 0, 5, b.Node.Alloc(size, 0), size)),
			}
		})
		return o.scripts[1].ends[0], o.counters[0].SendRetries
	}
	healthy, _ := run("")
	degraded, retries := run("degrade:factor=0.25")
	if retries != 0 {
		t.Fatalf("degrade-only schedule took the retransmission path (%v retries)", retries)
	}
	if float64(degraded) < 2*float64(healthy) {
		t.Fatalf("quarter-capacity wire only stretched the transfer %v -> %v", healthy, degraded)
	}
}

func TestNoOpScheduleMatchesHealthyWorld(t *testing.T) {
	run := func(spec string) []sim.Duration {
		lats, _ := runPingPongTwins(t, func() (*machine.Cluster, *World) { return faultWorld(t, 1, spec) },
			&PingPong{Size: 64 << 10, Iters: 10, Warmup: 2})
		return lats
	}
	healthy := run("")
	noop := run("degrade:factor=1")
	for i := range healthy {
		if healthy[i] != noop[i] {
			t.Fatalf("latency %d: healthy %v != no-op schedule %v", i, healthy[i], noop[i])
		}
	}
}

func TestCommHangStallsPingPong(t *testing.T) {
	run := func(spec string) sim.Time {
		_, o := runPingPongTwins(t, func() (*machine.Cluster, *World) { return faultWorld(t, 1, spec) },
			&PingPong{Size: 4096, Iters: 5, Warmup: 0})
		ends := o.scripts[0].ends
		return ends[len(ends)-1]
	}
	healthy := run("")
	hung := run("hang:node=0,at=5us,for=500us")
	if hung < healthy+sim.Time(400*sim.Microsecond) {
		t.Fatalf("comm hang barely delayed the ping-pong: %v -> %v", healthy, hung)
	}
}

// TestLossyPingPongAllocs bounds the allocations of one iteration of a
// lossy, crash-free eager ping-pong once the world's pools are warm: a
// payload's flow and completion signal are recycled on every crash-free
// world, and the ranks' operations on their ranks. What is left is the iteration's latency slice and
// the two messages, with their waiter queues, which a lossy world does
// not recycle: 23 allocations, where the ranks on processes, with
// payloads recycled on healthy worlds only, made 31.
func TestLossyPingPongAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c, w := faultWorld(t, 1, "loss:p=0.2")
	a, b := w.Rank(0), w.Rank(1)
	pp := &PingPong{Size: 4096, Iters: 1,
		InitBuf: a.Node.Alloc(4096, a.Node.Spec.NIC.NUMA), RespBuf: b.Node.Alloc(4096, b.Node.Spec.NIC.NUMA)}
	iter := func() {
		pp.Start(w, 0, nil)
		c.K.Run()
	}
	iter() // warm the pools
	if allocs := testing.AllocsPerRun(200, iter); allocs > 23 {
		t.Fatalf("%v allocations per lossy ping-pong iteration, want at most 23", allocs)
	}
}
