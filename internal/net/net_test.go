package net

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet(t *testing.T) (*machine.Cluster, *Network) {
	t.Helper()
	c := machine.NewCluster(topology.Henri(), 2, 1)
	return c, New(c)
}

func TestWiresAreDirectedPerPair(t *testing.T) {
	_, nw := testNet(t)
	if len(nw.links) != 2 || nw.Link(0) == nw.Link(1) {
		t.Fatalf("%d links; full duplex expected: one resource per direction", len(nw.links))
	}
	if got := nw.Link(0).Capacity(); math.Abs(got-10.9e9) > 1 {
		t.Fatalf("wire capacity %v, want 10.9e9", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self-wire route did not panic")
		}
	}()
	nw.pathUses(nil, 0, 0)
}

func TestDMAUsesPaths(t *testing.T) {
	c, nw := testNet(t)
	src, dst := c.Nodes[0], c.Nodes[1]
	// Data on the NIC NUMA node (0) at both ends: ctrl+pcie+wire+pcie+ctrl.
	near := nw.dmaUses(nil, src, 0, dst, 0)
	if len(near) != 5 {
		t.Fatalf("near-near path has %d uses, want 5", len(near))
	}
	// Data far from the NIC on both ends: + one link per end.
	far := nw.dmaUses(nil, src, 3, dst, 3)
	if len(far) != 7 {
		t.Fatalf("far-far path has %d uses, want 7", len(far))
	}
}

func TestTransferDMAUncontendedHitsWireSpeed(t *testing.T) {
	c, nw := testNet(t)
	src, dst := c.Nodes[0], c.Nodes[1]
	srcBuf := src.Alloc(64<<20, 0)
	dstBuf := dst.Alloc(64<<20, 0)
	var d sim.Duration
	c.K.Spawn("xfer", func(p *sim.Proc) {
		start := p.Now()
		nw.TransferDMA(p, src, srcBuf, dst, dstBuf, 64<<20)
		d = p.Now().Sub(start)
	})
	c.K.Run()
	gbps := float64(64<<20) / d.Seconds() / 1e9
	if math.Abs(gbps-10.9) > 0.05 {
		t.Fatalf("uncontended DMA at %.2f GB/s, want ~10.9", gbps)
	}
}

func TestTransferDMAContendedSharesController(t *testing.T) {
	c, nw := testNet(t)
	src, dst := c.Nodes[0], c.Nodes[1]
	// Saturate the source data controller with compute streams.
	for i := 0; i < 35; i++ {
		i := i
		c.K.Spawn("stream", func(p *sim.Proc) {
			src.ExecCompute(p, i, machine.ComputeSpec{
				Flops: 1, Bytes: 5e9, Class: topology.Scalar, MemNUMA: 0,
			})
		})
	}
	srcBuf := src.Alloc(64<<20, 0)
	dstBuf := dst.Alloc(64<<20, 0)
	var d sim.Duration
	c.K.Spawn("xfer", func(p *sim.Proc) {
		p.Sleep(sim.Duration(sim.Millisecond)) // let streams settle
		start := p.Now()
		nw.TransferDMA(p, src, srcBuf, dst, dstBuf, 64<<20)
		d = p.Now().Sub(start)
	})
	c.K.Run()
	gbps := float64(64<<20) / d.Seconds() / 1e9
	if gbps > 7 {
		t.Fatalf("contended DMA at %.2f GB/s; contention not applied", gbps)
	}
	if gbps < 1.5 {
		t.Fatalf("contended DMA at %.2f GB/s; DMA arbitration priority lost", gbps)
	}
}

func TestSendOverheadScalesWithFrequency(t *testing.T) {
	c, nw := testNet(t)
	n := c.Nodes[0]
	measure := func(ghz float64) sim.Duration {
		n.Freq.SetUserspace(ghz)
		var d sim.Duration
		done := false
		c.K.Spawn("o", func(p *sim.Proc) {
			start := p.Now()
			nw.SendOverhead(p, n, 0, 0)
			d = p.Now().Sub(start)
			done = true
		})
		c.K.Run()
		if !done {
			t.Fatal("overhead proc did not finish")
		}
		return d
	}
	slow := measure(1.0)
	fast := measure(2.3)
	if slow <= fast {
		t.Fatalf("overhead at 1.0GHz (%v) not above 2.3GHz (%v)", slow, fast)
	}
	// The cycle part scales exactly with frequency; the memory part does
	// not. Check the cycle delta: 1050 cycles × (1/1.0 − 1/2.3) ≈ 594 ns.
	delta := slow - fast
	if delta < 400 || delta > 800 {
		t.Fatalf("frequency delta %v outside expected range", delta)
	}
}

func TestPIOFarThreadFeelsLinkContention(t *testing.T) {
	c, nw := testNet(t)
	n := c.Nodes[0]
	n.Freq.SetUserspace(2.3)
	n.Freq.SetUncoreFixed(2.4)
	// Comm thread far from the NIC (NUMA 3; NIC on 0).
	farCore := n.Spec.LastCoreOfNUMA(3)
	measure := func() sim.Duration {
		var d sim.Duration
		c.K.Spawn("o", func(p *sim.Proc) {
			start := p.Now()
			nw.SendOverhead(p, n, farCore, 0)
			d = p.Now().Sub(start)
		})
		c.K.Run()
		return d
	}
	quiet := measure()
	// Saturate the link 3→0 with streams from NUMA 3 cores to NUMA 0.
	var hogs []machine.Background
	for i := 0; i < 8; i++ {
		hogs = append(hogs, n.BackgroundStream("hog", 3, 0, 10e9))
	}
	loaded := measure()
	if loaded <= quiet {
		t.Fatalf("far-thread overhead under link load %v not above quiet %v", loaded, quiet)
	}
	for i := range hogs {
		hogs[i].Stop()
	}
}

func TestMemcpySameNUMAWeightsController(t *testing.T) {
	c, nw := testNet(t)
	n := c.Nodes[0]
	n.Freq.SetUncoreFixed(2.4) // ctrl at 50 GB/s
	var d sim.Duration
	// 1.2 GB at copy cap 24 GB/s (weight 2 → 48 GB/s consumed, within the
	// 50 GB/s controller).
	nw.StartMemcpy(n, 0, 0, 0, 12e8, func(bool) { d = c.K.Now().Sub(0) })
	c.K.Run()
	if math.Abs(d.Seconds()-0.05) > 1e-3 {
		t.Fatalf("same-NUMA memcpy took %v, want ~0.05s", d)
	}
}

func TestMemcpyCrossNUMAUsesLink(t *testing.T) {
	c, nw := testNet(t)
	var d sim.Duration
	nw.StartMemcpy(c.Nodes[0], 0, 0, 3, 12e8, func(bool) { d = c.K.Now().Sub(0) })
	c.K.Run()
	if d == 0 {
		t.Fatal("cross-NUMA memcpy did not run")
	}
}

func TestWireSharedByOppositeTransfersIndependently(t *testing.T) {
	c, nw := testNet(t)
	a, b := c.Nodes[0], c.Nodes[1]
	bufA := a.Alloc(64<<20, 0)
	bufB := b.Alloc(64<<20, 0)
	var dAB, dBA sim.Duration
	c.K.Spawn("ab", func(p *sim.Proc) {
		start := p.Now()
		nw.TransferDMA(p, a, bufA, b, bufB, 64<<20)
		dAB = p.Now().Sub(start)
	})
	c.K.Spawn("ba", func(p *sim.Proc) {
		start := p.Now()
		nw.TransferDMA(p, b, bufB, a, bufA, 64<<20)
		dBA = p.Now().Sub(start)
	})
	c.K.Run()
	// Full duplex: opposite directions do not share the wire; both end
	// at wire speed (controllers have headroom for 2×10.9 GB/s).
	for _, d := range []sim.Duration{dAB, dBA} {
		gbps := float64(64<<20) / d.Seconds() / 1e9
		if gbps < 10.0 {
			t.Fatalf("duplex transfer at %.2f GB/s, want ~10.9 each way", gbps)
		}
	}
}

// TestTransferEagerFaults drives one 64 KiB eager transfer through the
// fault paths of its continuation chain: a NIC stall at the destination
// delays the start by the stall, a crash mid-flight drops the payload
// at the crash instant, and a transfer to a node already down ends
// within the call.
func TestTransferEagerFaults(t *testing.T) {
	run := func(spec string, start sim.Duration) (sim.Time, bool) {
		c, nw := testNet(t)
		if spec != "" {
			s, err := fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			nw.InstallFaults(fault.NewInjector(c, s, 1))
		}
		end, landed := sim.Time(-1), false
		c.K.At(sim.Time(start), func() {
			nw.StartEager(c.Nodes[0], c.Nodes[1], 64<<10, func(ok bool) { end, landed = c.K.Now(), ok })
			if start > 0 && end < 0 {
				t.Errorf("%s: the transfer to a node already down did not end within the call", spec)
			}
		})
		c.K.Run()
		if end < 0 {
			t.Fatalf("%s: transfer never ended", spec)
		}
		return end, landed
	}
	d, ok := run("", 0)
	if !ok || d <= 0 {
		t.Fatalf("healthy transfer: landed %v after %v", ok, d)
	}
	if end, ok := run("stall:node=1,at=0us,for=20us", 0); !ok || end != sim.Time(20*sim.Microsecond)+d {
		t.Fatalf("stalled transfer: landed %v at %v, want true at 20µs + %v", ok, end, d)
	}
	mid := d / 2
	if end, ok := run(fmt.Sprintf("crash:node=1,at=%dns", mid), 0); ok || end != mid {
		t.Fatalf("crash mid-flight: landed %v at %v, want false at %v", ok, end, mid)
	}
	if end, ok := run("crash:node=1,at=0us", sim.Microsecond); ok || end != sim.Time(sim.Microsecond) {
		t.Fatalf("transfer to a crashed node: landed %v at %v, want false at 1µs", ok, end)
	}
}
