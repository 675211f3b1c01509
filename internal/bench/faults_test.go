package bench

import (
	"testing"

	"repro/internal/topology"
)

// TestFaultsPingPongSweepCompletes: every scenario of the built-in
// fault-intensity sweep completes, including intensity 0.6 at a seed
// where a 20-retry budget ran out and the point panicked.
func TestFaultsPingPongSweepCompletes(t *testing.T) {
	env := Env{Spec: topology.Henri(), Seed: 239, Runs: 1}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("a faults-pingpong point panicked: %v", p)
		}
	}()
	if rows := len(FaultsPingPong(env).Rows); rows != 4 {
		t.Fatalf("%d scenarios, want 4", rows)
	}
}
