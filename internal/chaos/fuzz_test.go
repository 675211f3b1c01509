package chaos

import "testing"

// FuzzChaosParseSpec: ParseSpec never panics, and every schedule it
// accepts renders to a spec that re-parses to the same rendering.
func FuzzChaosParseSpec(f *testing.F) {
	f.Add("refuse:p=0.3")
	f.Add("http:status=502,match=/cache/;latency:p=0.5,delay=50ms")
	f.Add("eio-write:ops=1-4,match=campaigns;torn:ops=3-3")
	f.Add("enospc:p=0.2,match=.tmp-;fsync")
	f.Add(";;")
	f.Add("truncate:p=")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		rendered := s.String()
		back, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("rendering %q of accepted spec %q does not re-parse: %v", rendered, spec, err)
		}
		if back.String() != rendered {
			t.Fatalf("rendering unstable: %q -> %q", rendered, back.String())
		}
	})
}
