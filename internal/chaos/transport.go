package chaos

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"syscall"
)

// Transport is an instrumented http.RoundTripper: every round trip
// consults the injector (labelled "METHOD host/path") and may be
// refused outright, answered with a synthetic 5xx, or have its response
// body truncated mid-stream. Wrap any HTTP client's transport with it
// to chaos-test the client's retry, verification and fallback
// paths against a healthy server.
type Transport struct {
	// Base performs the real round trips; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
	// Inj decides the faults; nil injects nothing.
	Inj *Injector
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	label := req.Method + " " + req.URL.Host + req.URL.Path
	ev, ok := t.Inj.Decide(OpHTTP, label)
	if !ok {
		return t.base().RoundTrip(req)
	}
	switch ev.Kind {
	case Refuse:
		// Shaped like a real dial failure so callers' transient-error
		// classification treats it exactly like a down daemon.
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	case HTTPError:
		body := fmt.Sprintf("chaos: injected %d\n", ev.Status)
		resp := &http.Response{
			Status:        strconv.Itoa(ev.Status) + " " + http.StatusText(ev.Status),
			StatusCode:    ev.Status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}
		if ev.Status == http.StatusServiceUnavailable {
			resp.Header.Set("Retry-After", "1")
		}
		return resp, nil
	case Truncate:
		resp, err := t.base().RoundTrip(req)
		if err != nil || resp.Body == nil {
			return resp, err
		}
		resp.Body = &truncatedBody{base: resp.Body, remaining: truncateAt(resp.ContentLength)}
		return resp, nil
	}
	return t.base().RoundTrip(req)
}

// truncateAt picks how many bytes of a body to deliver before the cut:
// half of a known length, a small prefix of an unknown one. A known
// length under two bytes (a 204 ack) is cut before its first byte, so
// the fault always surfaces as a read error.
func truncateAt(contentLength int64) int64 {
	if contentLength >= 0 {
		return contentLength / 2
	}
	return 16
}

// truncatedBody delivers a prefix of the real body and then fails with
// io.ErrUnexpectedEOF — the reader-visible shape of a connection cut
// mid-transfer.
type truncatedBody struct {
	base      io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.base.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		// The real body ended before the cut; keep the EOF honest.
		return n, io.EOF
	}
	if b.remaining <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.base.Close() }
