package fault

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"loss:p=0.1",
		"corrupt:p=0.05,at=1ms,for=5ms",
		"degrade:factor=0.5",
		"degrade:factor=0.25,link=0-1",
		"stall:node=0,at=100us,for=300us",
		"hang:node=1,at=50us,for=200us",
		"straggler:factor=2,node=1,cores=0+1+2",
		"loss:p=0.2;degrade:factor=0.5;straggler:factor=1.5",
	}
	for _, spec := range specs {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		// String() renders back to the same syntax; reparsing it must
		// yield an equivalent schedule.
		s2, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("reparse of %q (rendered %q): %v", spec, s.String(), err)
		}
		if len(s2.Events) != len(s.Events) {
			t.Fatalf("%q: round trip changed event count %d -> %d", spec, len(s.Events), len(s2.Events))
		}
		for i := range s.Events {
			if !reflect.DeepEqual(s.Events[i], s2.Events[i]) {
				t.Fatalf("%q event %d: %+v != %+v", spec, i, s.Events[i], s2.Events[i])
			}
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"", "empty schedule"},
		{"explode:p=1", "unknown event kind"},
		{"loss:p", "key=value"},
		{"loss:p=1.5", "outside [0,1]"},
		{"degrade:factor=0", "outside (0,1]"},
		{"degrade:factor=2", "outside (0,1]"},
		{"degrade:factor=0.5,link=3", "from-to"},
		{"stall:node=0", "for>0"},
		{"hang:node=0,at=1ms", "for>0"},
		{"straggler:factor=0.5", "below 1"},
		{"loss:p=0.1,at=-1ms", "bad duration"},
		{"loss:p=0.1,at=3m", "bad duration"},
		{"loss:p=0.1,wobble=3", "unknown option"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Fatalf("ParseSpec(%q) accepted", c.spec)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseSpec(%q): error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := DefaultPolicy()
	p.JitterFrac = 0 // exact values
	want := []sim.Duration{
		20 * sim.Microsecond, 40 * sim.Microsecond, 80 * sim.Microsecond,
		160 * sim.Microsecond, 320 * sim.Microsecond, 640 * sim.Microsecond,
		sim.Millisecond, sim.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Backoff(i, nil); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
	if got := p.Backoff(1000, nil); got != sim.Millisecond {
		t.Fatalf("Backoff(1000) = %v, want cap %v", got, sim.Millisecond)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := DefaultPolicy() // JitterFrac 0.1
	rng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 6; attempt++ {
		base := float64(p.Backoff(attempt, nil))
		seen := map[sim.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := p.Backoff(attempt, rng)
			lo, hi := base*(1-p.JitterFrac), base*(1+p.JitterFrac)
			if float64(d) < lo || float64(d) > hi {
				t.Fatalf("Backoff(%d) = %v outside jitter band [%g, %g]", attempt, d, lo, hi)
			}
			seen[d] = true
		}
		if len(seen) < 10 {
			t.Fatalf("Backoff(%d): only %d distinct jittered values in 200 draws", attempt, len(seen))
		}
	}
}

func TestBackoffAlwaysPositive(t *testing.T) {
	p := RetryPolicy{RTO: 1, MaxRetries: 3, BackoffFactor: 2, BackoffCap: 2, JitterFrac: 0.99}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if d := p.Backoff(0, rng); d <= 0 {
			t.Fatalf("Backoff returned non-positive %v", d)
		}
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	p := DefaultPolicy()
	draw := func() []sim.Duration {
		rng := rand.New(rand.NewSource(42))
		var out []sim.Duration
		for i := 0; i < 16; i++ {
			out = append(out, p.Backoff(i%8, rng))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v != %v", i, a[i], b[i])
		}
	}
}

func TestInjectorTxDrawsOnlyInsideWindows(t *testing.T) {
	spec := topology.Henri()
	c := machine.NewCluster(spec, 2, 1)
	s, err := ParseSpec("loss:p=1,at=10us,for=10us")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(c, s, 1)
	if !inj.Lossy() {
		t.Fatal("schedule with loss events reported not lossy")
	}
	// Before the window: every transmission survives.
	if got := inj.Tx(); got != TxOK {
		t.Fatalf("Tx before window = %v, want TxOK", got)
	}
	// Inside the window (p=1): every transmission is lost.
	c.K.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(15 * sim.Microsecond)
		if got := inj.Tx(); got != TxLost {
			t.Errorf("Tx inside window = %v, want TxLost", got)
		}
		p.Sleep(10 * sim.Microsecond) // now at 25us, window closed
		if got := inj.Tx(); got != TxOK {
			t.Errorf("Tx after window = %v, want TxOK", got)
		}
	})
	c.K.Run()
}

func TestStragglerSlowsCoreWithinWindow(t *testing.T) {
	spec := topology.Henri()
	c := machine.NewCluster(spec, 1, 1)
	s, err := ParseSpec("straggler:factor=2,node=0,cores=3,at=10us,for=10us")
	if err != nil {
		t.Fatal(err)
	}
	NewInjector(c, s, 1)
	n := c.Nodes[0]
	var during, after float64
	c.K.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(15 * sim.Microsecond)
		during = n.CoreSlowdown(3)
		if got := n.CoreSlowdown(2); got != 1 {
			t.Errorf("untargeted core slowed by %g", got)
		}
		p.Sleep(10 * sim.Microsecond)
		after = n.CoreSlowdown(3)
	})
	c.K.Run()
	if during != 2 {
		t.Fatalf("slowdown during window %g, want 2", during)
	}
	if after != 1 {
		t.Fatalf("slowdown after window %g, want 1", after)
	}
}

func TestGateBlocksForWindow(t *testing.T) {
	spec := topology.Henri()
	c := machine.NewCluster(spec, 2, 1)
	s, err := ParseSpec("hang:node=0,at=0us,for=30us")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(c, s, 1)
	// Each gate is a continuation that asks again whenever it runs,
	// until its node's communication thread is clear.
	gate := func(node int, released *sim.Time) {
		var w sim.Cont
		ask := func() {
			if inj.WaitComm(&w, node) {
				*released = c.K.Now()
			}
		}
		w = sim.MakeCont(ask)
		c.K.At(0, ask)
	}
	var released, other sim.Time = -1, -1
	gate(0, &released)
	gate(1, &other)
	c.K.Run()
	if released != sim.Time(30*sim.Microsecond) {
		t.Fatalf("gated process released at %v, want 30us", released)
	}
	if other != 0 {
		t.Fatalf("other node gated until %v, want immediate release", other)
	}
}

func TestTransferErrorMessage(t *testing.T) {
	e := &TransferError{Op: "eager", Src: 0, Dst: 1, Attempts: 9}
	msg := e.Error()
	for _, want := range []string{"eager", "n0", "n1", "9"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
