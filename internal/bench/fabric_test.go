package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// fabricExec executes one point and returns its record and the work
// DoneByFamily counted for the fabric family while it ran.
func fabricExec(env Env, p Point) (PointRecord, Work) {
	before := DoneByFamily()["fabric"]
	rec := ExecutePoint(env, p)
	return rec, DoneByFamily()["fabric"].Sub(before)
}

// TestFabricRewindMatchesFresh is the differential lock on the rewind
// of fabric worlds: a fabric point rewinds one world for every later
// run and solo job, and its record and its work must match a NoPool run
// that builds every world afresh, at two seeds, healthy and under each
// kind of fault a fabric world takes. A crash leaves its world
// undrained, so the run after it builds a fresh one; a point that
// panics (the crashed ping has no bandwidth) must panic alike.
func TestFabricRewindMatchesFresh(t *testing.T) {
	var pts []Point
	pts = append(pts, fabricInterferencePoints("fattree-k4", []int{2, 3, 4})...)
	pts = append(pts, fabricInterferencePoints("dflyplus-small", []int{1, 2, 3})...)
	pts = append(pts, fabricPingPoints([]string{"fattree-k4", "dflyplus-small"})...)
	specs := []string{
		"",
		"degrade:factor=0.5",
		"stall:node=0,at=100us,for=300us",
		"straggler:factor=2,node=1,cores=0+1+2",
		"crash:node=1,at=200us",
	}
	for _, spec := range specs {
		for _, seed := range []int64{1, 7} {
			env := DefaultEnv()
			env.Runs, env.Seed = 3, seed
			if spec != "" {
				sched, err := fault.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				env.Faults = sched
			}
			fresh := env
			fresh.NoPool = true
			for _, p := range pts {
				what := fmt.Sprintf("%s seed %d faults %q", p.Key, seed, spec)
				want, wantWork := fabricExec(fresh, p)
				got, gotWork := fabricExec(env, p)
				if want.Panic != nil || got.Panic != nil {
					if fmt.Sprint(got.Panic) != fmt.Sprint(want.Panic) {
						t.Fatalf("%s: rewound point panicked with %v, fresh one with %v", what, got.Panic, want.Panic)
					}
				} else if !bytes.Equal(got.EncodeBinary(), want.EncodeBinary()) {
					t.Fatalf("%s: rewound record differs from fresh\nrewound: %+v\nfresh:   %+v", what, got, want)
				}
				if gotWork != wantWork {
					t.Fatalf("%s: rewound work %+v, fresh %+v", what, gotWork, wantWork)
				}
			}
		}
	}
}

// TestFabricWorldRewinds pins when fabricWorld rewinds the world it is
// handed: inside a point, drained, and with pooling on. NoPool and a
// world built outside any point get a fresh build.
func TestFabricWorldRewinds(t *testing.T) {
	fab := topology.FabricPreset("fattree-k4").MustBuild()
	rewinds := func(env Env) bool {
		var same bool
		rec := ExecutePoint(env, Point{Key: "fabric/t/rewind", Fn: func(e Env) any {
			c, nw := fabricWorld(e, fab, false, 1, nil, nil)
			c2, _ := fabricWorld(e, fab, false, 2, c, nw)
			same = c2 == c
			return struct{}{}
		}})
		if rec.Panic != nil {
			t.Fatal(rec.Panic)
		}
		if rec.Worlds != 2 {
			t.Fatalf("Worlds = %d, want 2 (a rewind counts as a world)", rec.Worlds)
		}
		return same
	}
	if !rewinds(quietEnv()) {
		t.Fatal("a drained fabric world was rebuilt inside a point")
	}
	noPool := quietEnv()
	noPool.NoPool = true
	if rewinds(noPool) {
		t.Fatal("a NoPool point rewound a fabric world")
	}
	c, nw := fabricWorld(quietEnv(), fab, false, 1, nil, nil)
	if c2, _ := fabricWorld(quietEnv(), fab, false, 2, c, nw); c2 == c {
		t.Fatal("a fabric world outside a point was rewound")
	}
}
