package server

import (
	"math"
	"testing"
)

// TestLatencyPercentilesWindowWraps: once the ring has wrapped, the
// percentiles come from the last latencyWindow samples only. The first
// k samples are huge outliers, and the ring then records 1..latencyWindow
// ms, which overwrites exactly them.
func TestLatencyPercentilesWindowWraps(t *testing.T) {
	const k = 1000
	var l latencyRecorder
	for i := 0; i < k; i++ {
		l.add(1e9)
	}
	for i := 1; i <= latencyWindow; i++ {
		l.add(float64(i))
	}
	p50, p99, count := l.percentiles()
	if count != latencyWindow+k {
		t.Fatalf("count = %d, want %d", count, latencyWindow+k)
	}
	// Interpolated over 1..4096: rank 0.5*4095 and 0.99*4095.
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", p50, 2048.5}, {"p99", p99, 4055.05}} {
		if math.Abs(c.got-c.want) > 1e-6 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
