package fluid

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Tests of the skipped solve: a start, cancel or completion of an
// isolated flow must leave the model bit for bit where the full re-solve
// leaves it.

// withSkip runs fn with the isolated-flow skip on or off.
func withSkip(on bool, fn func()) {
	saved := skipIsolated
	defer func() { skipIsolated = saved }()
	skipIsolated = on
	fn()
}

// TestIsolatedSkip: a capped flow on a resource with room, or on a
// resource of its own, starts, is cancelled and completes without a
// solve, at the rate a solve gives; a flow that saturates a shared
// resource solves.
func TestIsolatedSkip(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = true
	bus := m.NewResource("bus", 100)
	own := m.NewResource("own", 6)
	m.Start(FlowSpec{Name: "bg", Work: 1e6, Cap: 30, Uses: []Use{{bus, 1}}})
	solves, skips := m.Solves(), m.Skips()

	capped := m.Start(FlowSpec{Name: "capped", Work: 1e6, Cap: 5, Priority: 1.5, Uses: []Use{{bus, 2}}})
	private := m.Start(FlowSpec{Name: "private", Work: 8, Priority: 3, Uses: []Use{{bus, 1}, {own, 2}}})
	if got := m.Skips() - skips; got != 2 || m.Solves() != solves {
		t.Fatalf("isolated starts: %d skips, %d solves; want 2 and 0", got, m.Solves()-solves)
	}
	if capped.Rate() != 5 || private.Rate() != 3 {
		t.Fatalf("rates %v and %v, want the cap 5 and the private share 3", capped.Rate(), private.Rate())
	}
	checkDifferential(t, m)

	m.Cancel(capped)
	k.RunUntil(k.Now().Add(3 * sim.Second)) // private completes at 8/3 s
	if !private.Finished() || m.Skips()-skips != 4 || m.Solves() != solves {
		t.Fatalf("cancel and completion: finished %v, %d skips, %d solves; want true, 4 and 0",
			private.Finished(), m.Skips()-skips, m.Solves()-solves)
	}
	checkDifferential(t, m)

	hog := m.Start(FlowSpec{Name: "hog", Work: 1e6, Uses: []Use{{bus, 1}}})
	if m.Solves() != solves+1 || hog.Rate() != 70 {
		t.Fatalf("a saturating start: %d solves, rate %v; want 1 and 70", m.Solves()-solves, hog.Rate())
	}
}

// TestIsolatedBurst starts 1,024 isolated flows at one instant, with
// flows in flight, as a fabric's hosts start their transfers when a
// barrier releases. Every start must skip its solve and leave the model
// where an independent scan (checkSettled) and the reference solver
// (checkDifferential) put it, and the whole burst must scan the flows
// once: its first start scans, and every later one folds into that scan.
func TestIsolatedBurst(t *testing.T) {
	const hosts, links = 1024, 16
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = false // checkDifferential runs the reference after every start
	rng := rand.New(rand.NewSource(1))
	var link, nic []*Resource
	for i := 0; i < links; i++ {
		link = append(link, m.NewResource("link", 1e4))
	}
	for i := 0; i < hosts; i++ {
		nic = append(nic, m.NewResource("nic", 50))
	}
	for i := 0; i < 4*links; i++ {
		m.Start(FlowSpec{Name: "bg", Work: 1e3 * (1 + rng.Float64()), Cap: float64(10 + i%3*5), Uses: []Use{{link[i%links], 1}}})
	}
	k.RunUntil(k.Now().Add(sim.Second)) // time moves: the last scan no longer holds
	solves, skips, folds := m.Solves(), m.Skips(), m.folds
	var scans uint64
	for i := 0; i < hosts; i++ {
		before := m.scans
		// One normalised cap fixes the whole burst in one round of the
		// reference's filling.
		pri := float64(1 + i%3)
		m.Start(FlowSpec{Name: "dma", Work: 1 + rng.Float64()*100, Cap: 5 * pri, Priority: pri,
			Uses: []Use{{nic[i], 1}, {link[rng.Intn(links)], 0.5 + rng.Float64()}}})
		scans += m.scans - before
		checkSettled(t, m)
		checkDifferential(t, m)
	}
	if m.Solves() != solves || m.Skips()-skips != hosts {
		t.Fatalf("burst: %d solves, %d skips; want 0 and %d", m.Solves()-solves, m.Skips()-skips, hosts)
	}
	if scans != 1 || m.folds-folds != hosts-1 {
		t.Fatalf("burst: %d scans, %d folded starts; want 1 and %d", scans, m.folds-folds, hosts-1)
	}
}

// isolatedTwin builds one side of TestIsolatedSkipTwin: a few shared
// resources, roomy enough that most capped flows leave them slack.
func isolatedTwin(seed int64) *twin {
	k := sim.NewKernel(seed)
	tw := &twin{k: k, m: NewModel(k), rng: rand.New(rand.NewSource(seed)), ids: map[*Flow]int{}}
	tw.m.differential = false
	for n := 3 + tw.rng.Intn(4); n > 0; n-- {
		tw.res = append(tw.res, tw.m.NewResource("shared", 20+tw.rng.Float64()*80))
	}
	return tw
}

// startBiased starts a flow shaped to be isolated more often than not:
// zero to four shared hops with priorities ≠ 1, often a resource of its
// own, usually a cap well under any capacity; now and then it crosses a
// resource twice or runs uncapped. Its OnDone logs it and sometimes
// starts another flow at the completion instant. With secs > 0, a capped
// flow's work lasts secs at its cap.
func (tw *twin) startBiased(secs float64) {
	rng := tw.rng
	id := len(tw.flows)
	spec := FlowSpec{Name: "f", Work: 0.1 + rng.Float64()*10, Priority: 0.5 + rng.Float64()*3}
	spec.OnDone = func() {
		tw.log = append(tw.log, id)
		if tw.rng.Intn(3) == 0 {
			tw.startBiased(0)
		}
	}
	for _, ri := range rng.Perm(len(tw.res))[:rng.Intn(min(4, len(tw.res))+1)] {
		spec.Uses = append(spec.Uses, Use{tw.res[ri], 0.25 + rng.Float64()*1.75})
	}
	if rng.Intn(3) == 0 {
		spec.Uses = append(spec.Uses, Use{tw.m.NewResource("own", 1+rng.Float64()*10), 0.5 + rng.Float64()})
	}
	if len(spec.Uses) > 0 && rng.Intn(10) == 0 {
		spec.Uses = append(spec.Uses, Use{spec.Uses[rng.Intn(len(spec.Uses))].Resource, 0.5 + rng.Float64()})
	}
	if len(spec.Uses) == 0 || rng.Intn(5) > 0 {
		spec.Cap = 0.2 + rng.Float64()*4
	}
	if secs > 0 && spec.Cap > 0 {
		spec.Work = spec.Cap * secs
	}
	f := tw.m.Start(spec)
	tw.ids[f] = id
	tw.flows = append(tw.flows, f)
}

// applyBiased runs mutation op of the isolated storm: 0-2 start, 3 start
// a flow due within settleEps, 4-5 cancel, 6 set a shared capacity
// (sometimes under the load, saturating the resource), 7 set a cap, 8
// let time pass, 9 run one event, 10 start a zero-work flow, 11 start a
// flow due in 5 ns behind a start or cancel scheduled for that instant,
// which then runs while the flow is due but not yet collected, 12 start a
// burst of two to nine flows at one instant.
func (tw *twin) applyBiased(op int) {
	switch op {
	case 0, 1, 2:
		tw.startBiased(0)
	case 3:
		tw.startBiased(tw.rng.Float64() * 2e-9)
	case 4, 5:
		if len(tw.flows) > 0 {
			tw.m.Cancel(tw.flows[tw.rng.Intn(len(tw.flows))])
		}
	case 6:
		tw.m.SetCapacity(tw.res[tw.rng.Intn(len(tw.res))], 1+tw.rng.Float64()*99)
	case 7:
		if len(tw.flows) > 0 {
			f := tw.flows[tw.rng.Intn(len(tw.flows))]
			if c := 0.2 + tw.rng.Float64()*4; !f.finished && len(f.uses) > 0 {
				tw.m.SetCap(f, c)
			}
		}
	case 8:
		tw.k.RunUntil(tw.k.Now().Add(sim.Duration(tw.rng.Int63n(int64(2 * sim.Second)))))
	case 9:
		tw.k.Step()
	case 10:
		id := len(tw.flows)
		f := tw.m.Start(FlowSpec{Name: "zero", Cap: 1, Uses: []Use{{tw.res[0], 1}}, OnDone: func() { tw.log = append(tw.log, id) }})
		tw.ids[f] = id
		tw.flows = append(tw.flows, f)
	case 11:
		tw.k.At(tw.k.Now().Add(5), func() { tw.applyBiased(tw.rng.Intn(6)) })
		tw.startBiased(4.5e-9)
	case 12:
		for n := 2 + tw.rng.Intn(8); n > 0; n-- {
			tw.startBiased(0)
		}
	}
}

// TestIsolatedSkipTwin storms worlds biased towards isolated mutations
// — caps well under capacity, resources of a flow's own, priorities ≠ 1,
// multi-hop routes, flows crossing a resource twice, flows due now,
// mutations at the instant a flow falls due and bursts of starts at one
// instant — on twins that take the same mutations, one with the skip and
// one with it forced off. After every mutation the twins must agree bit
// for bit on every rate, remaining work, load and the armed completion
// instant, and on the OnDone order (sameState), and the skipping twin
// must match the reference solver (its oracle is armed too) and an
// independent scan of its due flows and next completion (checkSettled).
// On every fill path, the skip must fire hundreds of times, and a start
// must fold into the last scan hundreds of times, or the storm proves
// nothing.
func TestIsolatedSkipTwin(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			var skips, folds uint64
			for seed := int64(0); seed < 40; seed++ {
				ctl := rand.New(rand.NewSource(seed + 1<<20))
				on, off := isolatedTwin(seed), isolatedTwin(seed)
				on.m.differential = true
				for step := 0; step < 80; step++ {
					op := ctl.Intn(13)
					withSkip(true, func() { on.applyBiased(op) })
					withSkip(false, func() { off.applyBiased(op) })
					sameState(t, off, on)
					checkDifferential(t, on.m)
					checkSettled(t, on.m)
				}
				withSkip(true, func() { on.k.RunUntil(on.k.Now().Add(60 * sim.Second)) })
				withSkip(false, func() { off.k.RunUntil(off.k.Now().Add(60 * sim.Second)) })
				sameState(t, off, on)
				if off.m.Skips() != 0 {
					t.Fatalf("seed %d: %d skips with the skip forced off", seed, off.m.Skips())
				}
				skips += on.m.Skips()
				folds += on.m.folds
			}
			t.Logf("%d skips, %d folded starts", skips, folds)
			if skips < 300 {
				t.Fatalf("the skip fired %d times, want at least 300", skips)
			}
			if folds < 300 {
				t.Fatalf("a start folded into the last scan %d times, want at least 300", folds)
			}
		})
	})
}
