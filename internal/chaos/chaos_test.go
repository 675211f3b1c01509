package chaos

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

func mustParse(t *testing.T, spec string) *Schedule {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return s
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"refuse:p=0.3",
		"http:ops=1-20",
		"http:status=502,match=/cache/",
		"latency:p=0.5,delay=50ms",
		"truncate:p=0.2,match=/cache/",
		"eio-read:p=0.3,match=.pack",
		"eio-write:ops=1-4,match=campaigns",
		"enospc:p=0.2,match=.tmp-",
		"torn:ops=3-3,match=campaigns",
		"fsync",
	}
	for _, spec := range specs {
		s := mustParse(t, spec)
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("re-parsing %q (rendered %q): %v", spec, s.String(), err)
		}
		if back.String() != s.String() {
			t.Errorf("%q: render not stable: %q vs %q", spec, s.String(), back.String())
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []string{
		"",
		"explode:p=1",
		"refuse:p=2",
		"refuse:p=-0.1",
		"http:status=200",
		"latency",           // needs delay
		"latency:delay=-1s", // not positive
		"torn:ops=5-2",      // empty window
		"torn:ops=x-y",
		"refuse:p",
		"refuse:wat=1",
	}
	for _, spec := range cases {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

// TestInjectorDeterminism: the decision stream for a label is a pure
// function of the seed — two injectors with the same seed agree
// decision-by-decision; a different seed diverges somewhere.
func TestInjectorDeterminism(t *testing.T) {
	sched := mustParse(t, "eio-write:p=0.4;fsync:p=0.3")
	run := func(seed int64) []bool {
		in := NewInjector(seed, sched)
		var out []bool
		for i := 0; i < 200; i++ {
			_, ok := in.Decide(OpWrite, "write:campaigns.jsonl")
			out = append(out, ok)
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	same := true
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !same {
		t.Fatal("same seed produced different decision streams")
	}
	if !diverged {
		t.Fatal("different seeds produced identical 200-op streams (suspicious hash)")
	}
	in := NewInjector(7, sched)
	for i := 0; i < 200; i++ {
		in.Decide(OpWrite, "write:campaigns.jsonl")
	}
	if got := in.Injected(); got == 0 || got == 200 {
		t.Fatalf("p=0.4 over 200 ops injected %d faults", got)
	}
	if in.Ops() != 200 {
		t.Fatalf("ops counter %d, want 200", in.Ops())
	}
}

// TestInjectorLabelIndependence: interleaving operations on another
// label must not shift a label's decision stream — that is what makes
// concurrent chaos runs reproducible.
func TestInjectorLabelIndependence(t *testing.T) {
	sched := mustParse(t, "eio-read:p=0.5")
	solo := NewInjector(3, sched)
	var want []bool
	for i := 0; i < 64; i++ {
		_, ok := solo.Decide(OpRead, "read:a")
		want = append(want, ok)
	}
	mixed := NewInjector(3, sched)
	var got []bool
	for i := 0; i < 64; i++ {
		mixed.Decide(OpRead, "read:noise")
		_, ok := mixed.Decide(OpRead, "read:a")
		got = append(got, ok)
		mixed.Decide(OpRead, "read:other-noise")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("decision %d for read:a changed when other labels interleaved", i)
		}
	}
}

func TestInjectorWindowAndMatch(t *testing.T) {
	sched := mustParse(t, "eio-write:ops=2-3,match=campaigns")
	in := NewInjector(1, sched)
	var hits []int
	for i := 1; i <= 5; i++ {
		if _, ok := in.Decide(OpWrite, "write:campaigns.jsonl"); ok {
			hits = append(hits, i)
		}
	}
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 3 {
		t.Fatalf("ops=2-3 window hit %v, want [2 3]", hits)
	}
	if _, ok := in.Decide(OpWrite, "write:other.txt"); ok {
		t.Fatal("match=campaigns hit an unrelated label")
	}
	if _, ok := in.Decide(OpRead, "read:campaigns.jsonl"); ok {
		t.Fatal("a write event hit a read operation")
	}
	if got := in.InjectedKind(WriteErr); got != 2 {
		t.Fatalf("InjectedKind(WriteErr) = %d, want 2", got)
	}
}

// TestNilInjector: a nil injector is inert at every call site.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if _, ok := in.Decide(OpHTTP, "GET x"); ok {
		t.Fatal("nil injector injected a fault")
	}
	if in.Ops() != 0 || in.Injected() != 0 || in.InjectedKind(Refuse) != 0 {
		t.Fatal("nil injector counters not zero")
	}
}

// TestFlakyFS: each fault kind surfaces with its realistic errno, and
// torn writes leave real partial bytes on disk.
func TestFlakyFS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaigns.jsonl")

	t.Run("eio-read", func(t *testing.T) {
		fsys := Flaky(OS(), NewInjector(1, mustParse(t, "eio-read:ops=1-1")))
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fsys.ReadFile(path); !errors.Is(err, syscall.EIO) {
			t.Fatalf("first read err = %v, want EIO", err)
		}
		if b, err := fsys.ReadFile(path); err != nil || string(b) != "x" {
			t.Fatalf("second read = %q, %v", b, err)
		}
	})

	t.Run("enospc-then-torn", func(t *testing.T) {
		p2 := filepath.Join(dir, "log2")
		fsys := Flaky(OS(), NewInjector(1, mustParse(t, "enospc:ops=1-1;torn:ops=2-2")))
		f, err := fsys.OpenFile(p2, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if n, err := f.Write([]byte("abcdef")); n != 0 || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("first write: n=%d err=%v, want 0, ENOSPC", n, err)
		}
		n, err := f.Write([]byte("abcdef"))
		if n != 3 || !errors.Is(err, syscall.EIO) {
			t.Fatalf("torn write: n=%d err=%v, want 3, EIO", n, err)
		}
		if n, err := f.Write([]byte("ghi")); n != 3 || err != nil {
			t.Fatalf("healthy write after faults: n=%d err=%v", n, err)
		}
		b, err := os.ReadFile(p2)
		if err != nil || string(b) != "abcghi" {
			t.Fatalf("on-disk bytes %q, want %q (torn prefix + healthy write)", b, "abcghi")
		}
	})

	t.Run("fsync", func(t *testing.T) {
		p3 := filepath.Join(dir, "log3")
		fsys := Flaky(OS(), NewInjector(1, mustParse(t, "fsync:ops=1-1")))
		f, err := fsys.OpenFile(p3, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("first sync err = %v, want EIO", err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("second sync err = %v", err)
		}
	})

	t.Run("temp-label", func(t *testing.T) {
		in := NewInjector(1, mustParse(t, "eio-write:ops=1-1,match=.tmp-"))
		fsys := Flaky(OS(), in)
		f, err := fsys.CreateTemp(dir, ".tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(f.Name())
		defer f.Close()
		if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("temp write err = %v, want EIO via the pattern label", err)
		}
	})

	// A PathError everywhere, so os.IsNotExist-style checks stay sane.
	fsys := Flaky(OS(), NewInjector(1, mustParse(t, "eio-read:ops=1-1")))
	_, err := fsys.ReadFile(path)
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("injected error %T is not a *fs.PathError", err)
	}
	if os.IsNotExist(err) {
		t.Fatal("EIO must not look like absence")
	}
}

// TestTransportFaults: each transport fault kind behaves like its
// real-world counterpart against a healthy test server.
func TestTransportFaults(t *testing.T) {
	const payload = "0123456789abcdef0123456789abcdef"
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer upstream.Close()

	get := func(c *http.Client) (int, string, error) {
		resp, err := c.Get(upstream.URL + "/cache/abc")
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), err
	}

	t.Run("refuse", func(t *testing.T) {
		in := NewInjector(1, mustParse(t, "refuse:ops=1-1"))
		c := &http.Client{Transport: &Transport{Inj: in}}
		if _, _, err := get(c); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("first request err = %v, want ECONNREFUSED", err)
		}
		if code, body, err := get(c); err != nil || code != 200 || body != payload {
			t.Fatalf("second request: %d %q %v", code, body, err)
		}
	})

	t.Run("http-status", func(t *testing.T) {
		in := NewInjector(1, mustParse(t, "http:ops=1-2,status=503"))
		c := &http.Client{Transport: &Transport{Inj: in}}
		resp, err := c.Get(upstream.URL + "/cache/abc")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 503 {
			t.Fatalf("injected 503: got %d", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("injected 503 has no Retry-After")
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code, _, err := get(c); err != nil || code != 503 {
			t.Fatalf("second op in the 1-2 burst: %d %v", code, err)
		}
		if code, body, err := get(c); err != nil || code != 200 || body != payload {
			t.Fatalf("post-burst request: %d %q %v", code, body, err)
		}
	})

	t.Run("truncate", func(t *testing.T) {
		in := NewInjector(1, mustParse(t, "truncate:ops=1-1"))
		c := &http.Client{Transport: &Transport{Inj: in}}
		_, body, err := get(c)
		if err == nil && len(body) >= len(payload) {
			t.Fatalf("truncated response delivered %d bytes intact", len(body))
		}
		if len(body) >= len(payload) {
			t.Fatalf("truncated body %q not shorter than %d", body, len(payload))
		}
	})

	t.Run("latency", func(t *testing.T) {
		clock := NewFakeClock()
		in := NewInjector(1, mustParse(t, "latency:ops=1-1,delay=1h"))
		c := &http.Client{Transport: &Transport{Inj: in, Clock: clock}}
		done := make(chan error, 1)
		go func() {
			_, _, err := get(c)
			done <- err
		}()
		for clock.Waiters() == 0 {
			time.Sleep(time.Millisecond)
		}
		select {
		case <-done:
			t.Fatal("request completed before the injected hour elapsed")
		default:
		}
		clock.Advance(time.Hour)
		if err := <-done; err != nil {
			t.Fatalf("request after latency: %v", err)
		}
	})
}

func TestFakeClock(t *testing.T) {
	f := NewFakeClock()
	start := f.Now()
	var wg sync.WaitGroup
	woke := make(chan time.Duration, 2)
	for _, d := range []time.Duration{time.Second, time.Minute} {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Sleep(d)
			woke <- d
		}()
	}
	for f.Waiters() != 2 {
		time.Sleep(time.Millisecond)
	}
	f.Advance(time.Second)
	if d := <-woke; d != time.Second {
		t.Fatalf("first waiter to wake slept %v", d)
	}
	if f.Waiters() != 1 {
		t.Fatalf("%d waiters after advancing 1s", f.Waiters())
	}
	f.Advance(time.Minute)
	wg.Wait()
	if got := f.Now().Sub(start); got != time.Second+time.Minute {
		t.Fatalf("clock advanced %v", got)
	}
	// Zero-duration sleeps return immediately, no Advance needed.
	donec := f.After(0)
	select {
	case <-donec:
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}
