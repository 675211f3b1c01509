package main

import "testing"

// TestTimeFabricSharedBaseline checks the fabric block's makespans
// against one solo baseline. On the golden cell they show what the
// per-routing slowdown ratios hide: adaptive routing finishes first.
func TestTimeFabricSharedBaseline(t *testing.T) {
	fr, err := timeFabric("henri", map[string]Benchmark{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.SoloMs <= 0 || fr.MakespanMsMinimal < fr.SoloMs || fr.MakespanMsAdaptive <= 0 {
		t.Fatalf("fabric block makespans out of shape: %+v", fr)
	}
	if fr.MakespanMsAdaptive >= fr.MakespanMsMinimal {
		t.Errorf("adaptive makespan %.3f ms not below minimal %.3f ms", fr.MakespanMsAdaptive, fr.MakespanMsMinimal)
	}
}
