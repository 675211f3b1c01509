package core

import "repro/internal/freq"

// condense drops consecutive samples where a core's frequency did not
// change, keeping traces readable: the output contains, per core, only
// the transition points (plus the initial value).
func condense(in []freq.Sample) []freq.Sample {
	last := map[int]float64{}
	var out []freq.Sample
	for _, s := range in {
		if ghz, seen := last[s.Core]; seen && ghz == s.GHz {
			continue
		}
		last[s.Core] = s.GHz
		out = append(out, s)
	}
	return out
}
