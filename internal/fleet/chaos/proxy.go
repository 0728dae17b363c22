// Package chaos is the failure-injection harness the fleet's
// robustness claims are proved against: an HTTP proxy that sits in
// front of a real wsrsd backend and injects the failure modes a
// distributed fleet actually meets — added latency, connections
// dropped without a response, 5xx bursts, response bodies truncated
// mid-JSON, and a hard backend kill that resets every connection
// (probes included) until revived.
//
// The proxy is deliberately a library, not a binary: TestChaosMatrix
// wraps real backends with it in-process. Faults are counted per
// proxy-wide request, so "every Nth request fails" composes naturally
// with the coordinator's retries: a retried request advances the
// counter and (usually) gets through.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Faults selects what the proxy injects. The zero value is a
// transparent proxy. Modes are checked in the order latency, drop,
// error, truncate; the periodic modes share one request counter.
type Faults struct {
	// Latency is added before every request is forwarded.
	Latency time.Duration
	// DropEvery closes every Nth connection without writing any
	// response (the client sees a reset/EOF mid-request).
	DropEvery int
	// ErrorEvery answers every Nth request with 502 without
	// forwarding it.
	ErrorEvery int
	// TruncateEvery forwards every Nth request but writes only half
	// the response body under a full-length Content-Length header,
	// then closes the connection (the client sees an unexpected EOF
	// mid-JSON).
	TruncateEvery int
}

// Proxy is one chaos-wrapped backend. Serve it with net/http (it
// implements http.Handler); point the fleet coordinator at the
// proxy's address instead of the backend's.
type Proxy struct {
	target string
	client *http.Client

	mu     sync.Mutex
	faults Faults

	n      atomic.Uint64
	killed atomic.Bool
}

// NewProxy builds a transparent proxy for the backend at target (a
// base URL, e.g. "http://127.0.0.1:8080"). Inject failures with
// SetFaults and Kill.
func NewProxy(target string) *Proxy {
	return &Proxy{
		target: target,
		// A private transport: a killed proxy must not poison shared
		// connection pools, and chaos tests run many proxies at once.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
}

// SetFaults replaces the injected fault set (atomic with respect to
// in-flight requests, which keep the set they started with).
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Faults returns the current fault set.
func (p *Proxy) Faults() Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Kill simulates a hard backend death: every subsequent connection —
// jobs and health probes alike — is reset without a byte of response,
// until Revive.
func (p *Proxy) Kill() { p.killed.Store(true) }

// Revive undoes Kill.
func (p *Proxy) Revive() { p.killed.Store(false) }

// Killed reports whether the proxy is currently dead.
func (p *Proxy) Killed() bool { return p.killed.Load() }

// Requests reports the total requests seen (faulted or forwarded).
func (p *Proxy) Requests() uint64 { return p.n.Load() }

// nth reports whether request n trips an every-N fault.
func nth(every int, n uint64) bool {
	return every > 0 && n%uint64(every) == 0
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := p.n.Add(1)
	if p.killed.Load() {
		abortConn(w)
		return
	}
	f := p.Faults()
	if f.Latency > 0 {
		select {
		case <-time.After(f.Latency):
		case <-r.Context().Done():
			return
		}
	}
	if nth(f.DropEvery, n) {
		abortConn(w)
		return
	}
	if nth(f.ErrorEvery, n) {
		http.Error(w, "chaos: injected 502", http.StatusBadGateway)
		return
	}

	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("chaos proxy: %v", err), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, fmt.Sprintf("chaos proxy: backend: %v", err), http.StatusBadGateway)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, fmt.Sprintf("chaos proxy: backend body: %v", err), http.StatusBadGateway)
		return
	}

	if nth(f.TruncateEvery, n) && len(body) > 1 {
		truncateResponse(w, resp, body)
		return
	}
	copyHeader(w.Header(), resp.Header)
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// copyHeader forwards end-to-end headers, skipping the hop-by-hop and
// framing ones the proxy re-derives.
func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Transfer-Encoding", "Content-Length", "Keep-Alive":
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// abortConn resets the client's connection without a response — the
// wire signature of a crashed backend.
func abortConn(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	// No hijack support (e.g. HTTP/2): the closest approximation.
	w.WriteHeader(http.StatusBadGateway)
}

// truncateResponse writes the response status and headers with the
// full Content-Length, half the body, then closes the connection: the
// client's JSON decoder sees a well-formed prefix and an unexpected
// EOF.
func truncateResponse(w http.ResponseWriter, resp *http.Response, body []byte) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		abortConn(w)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(buf, "HTTP/1.1 %d %s\r\n", resp.StatusCode, http.StatusText(resp.StatusCode))
	hdr := http.Header{}
	copyHeader(hdr, resp.Header)
	_ = hdr.Write(buf)
	fmt.Fprintf(buf, "Content-Length: %d\r\nConnection: close\r\n\r\n", len(body))
	_, _ = buf.Write(body[:len(body)/2])
	_ = buf.Flush()
}
