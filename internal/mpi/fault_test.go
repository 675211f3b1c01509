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
	ts := topology.Henri()
	ts.NIC.NoiseFrac = 0
	c := machine.NewCluster(ts, 2, seed)
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
	c, w := faultWorld(t, 1, "loss:p=0.5")
	a, b := w.Rank(0), w.Rank(1)
	buf := a.Node.Alloc(4096, 0)
	rbuf := b.Node.Alloc(4096, 0)
	done := false
	c.K.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			a.Send(p, 1, 5, buf, 4096)
		}
	})
	c.K.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			b.Recv(p, 0, 5, rbuf, 4096)
		}
		done = true
	})
	c.K.Run()
	if !done {
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
	if got := b.Node.Counters.BytesReceived; got != 20*4096 {
		t.Fatalf("BytesReceived %v, want %v", got, 20*4096)
	}
}

func TestLossyRendezvousRecoversHandshake(t *testing.T) {
	const size = 256 << 10 // > EagerMax: rendezvous
	c, w := faultWorld(t, 3, "loss:p=0.4;corrupt:p=0.1")
	a, b := w.Rank(0), w.Rank(1)
	buf := a.Node.Alloc(size, 0)
	rbuf := b.Node.Alloc(size, 0)
	done := false
	c.K.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			a.Send(p, 1, 9, buf, size)
		}
	})
	c.K.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			b.Recv(p, 0, 9, rbuf, size)
		}
		done = true
	})
	c.K.Run()
	if !done {
		t.Fatal("rendezvous receives never completed under RTS/CTS loss")
	}
	total := a.Node.Counters.MsgsLost + a.Node.Counters.MsgsCorrupted +
		b.Node.Counters.MsgsLost + b.Node.Counters.MsgsCorrupted
	if total == 0 {
		t.Fatal("no control-message faults recorded at p=0.5 combined")
	}
	if got := b.Node.Counters.BytesReceived; got != 10*size {
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

// TestLossyPingPongDeterministic runs the same lossy ping-pong twice
// with one seed and demands identical latencies and counters, and runs
// a third time with another seed expecting different recovery activity:
// fault injection is deterministic per seed without being constant.
func TestLossyPingPongDeterministic(t *testing.T) {
	run := func(seed int64) ([]sim.Duration, float64) {
		c, w := faultWorld(t, seed, "loss:p=0.3")
		pp := &PingPong{Size: 4096, Iters: 20, Warmup: 2}
		var lats []sim.Duration
		c.K.Spawn("init", func(p *sim.Proc) { lats = pp.Initiate(p, w.Rank(0), 1) })
		c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
		c.K.Run()
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

// TestDegradeSlowsTransfersWithoutLossPath checks that a pure-degrade
// schedule stretches bandwidth-bound transfers while leaving the MPI
// layer on its healthy (no-retransmission) code path.
func TestDegradeSlowsTransfersWithoutLossPath(t *testing.T) {
	run := func(spec string) (sim.Time, float64) {
		c, w := faultWorld(t, 1, spec)
		a, b := w.Rank(0), w.Rank(1)
		const size = 4 << 20
		buf := a.Node.Alloc(size, 0)
		rbuf := b.Node.Alloc(size, 0)
		var end sim.Time
		c.K.Spawn("send", func(p *sim.Proc) { a.Send(p, 1, 5, buf, size) })
		c.K.Spawn("recv", func(p *sim.Proc) {
			b.Recv(p, 0, 5, rbuf, size)
			end = p.Now()
		})
		c.K.Run()
		return end, a.Node.Counters.SendRetries
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

// TestNoOpScheduleMatchesHealthyWorld pins the invariance contract: an
// installed injector whose events do nothing (degrade factor 1) must
// reproduce the healthy world's timings exactly, because fault draws
// come from a dedicated RNG and the MPI layer only switches code paths
// for lossy schedules.
func TestNoOpScheduleMatchesHealthyWorld(t *testing.T) {
	run := func(spec string) []sim.Duration {
		c, w := faultWorld(t, 1, spec)
		pp := &PingPong{Size: 64 << 10, Iters: 10, Warmup: 2}
		var lats []sim.Duration
		c.K.Spawn("init", func(p *sim.Proc) { lats = pp.Initiate(p, w.Rank(0), 1) })
		c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
		c.K.Run()
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
		c, w := faultWorld(t, 1, spec)
		pp := &PingPong{Size: 4096, Iters: 5, Warmup: 0}
		var end sim.Time
		c.K.Spawn("init", func(p *sim.Proc) {
			pp.Initiate(p, w.Rank(0), 1)
			end = p.Now()
		})
		c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
		c.K.Run()
		return end
	}
	healthy := run("")
	hung := run("hang:node=0,at=5us,for=500us")
	if hung < healthy+sim.Time(400*sim.Microsecond) {
		t.Fatalf("comm hang barely delayed the ping-pong: %v -> %v", healthy, hung)
	}
}
