// Package serve is the serving layer of the reproduction: the HTTP
// machinery that turns the batch harness (wsrs.RunGrid and the named
// experiments) into a long-running simulation-as-a-service daemon.
//
// The package has four parts:
//
//   - Mux/Listen (this file): the one mux builder shared by every
//     binary that exposes HTTP — the diagnostic endpoints (/metrics
//     Prometheus exposition, /manifest, /debug/vars, /debug/pprof)
//     that cmd/wsrsbench -listen serves, optionally extended with the
//     job API below.
//   - Server (server.go, lifecycle.go, job.go, explore.go): the wsrsd
//     daemon core — one job model with two kinds, cell grids
//     (POST /v1/jobs) and design-space explorations (POST
//     /v1/explore), each with GET/DELETE {id} and a GET {id}/events
//     stream, over a bounded worker pool layered on wsrs.RunGrid,
//     with admission control (queue cap, 429 + Retry-After) and
//     graceful drain.
//   - Cache (cache.go): a content-addressed result store keyed by the
//     sha256 digest of a cell's identity, generalizing the JSONL
//     checkpoint store: in-memory LRU, optional JSONL persistence,
//     and singleflight coalescing of duplicate in-flight cells.
//   - Client (client.go): the small job-API client the fleet
//     coordinator, the CLIs, the benchmark and the tests drive.
package serve

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"wsrs/internal/telemetry"
)

// MuxOptions selects the endpoints Mux wires. The zero value serves
// only the index line.
type MuxOptions struct {
	// Registry, when non-nil, serves its Prometheus text exposition
	// at /metrics.
	Registry *telemetry.Registry
	// Manifest, when non-nil, streams a JSON document at /manifest
	// (cmd/wsrsbench serves the grid run manifest here).
	Manifest func(io.Writer) error
	// Expvar serves the process expvar map at /debug/vars.
	Expvar bool
	// Pprof serves the standard Go profiling endpoints under
	// /debug/pprof/.
	Pprof bool
	// Index is the plain-text body of "/" (a one-line endpoint
	// directory by convention); empty selects a generic line.
	Index string
}

// Mux builds the diagnostic mux shared by wsrsbench -listen and
// wsrsd: one place decides what /metrics, /manifest, /debug/vars and
// /debug/pprof look like, so every binary exposes the same surface.
func Mux(o MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	if o.Registry != nil {
		reg := o.Registry
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if o.Manifest != nil {
		write := o.Manifest
		mux.HandleFunc("/manifest", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := write(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if o.Expvar {
		mux.Handle("/debug/vars", expvar.Handler())
	}
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	index := o.Index
	if index == "" {
		index = "wsrs live endpoint: /metrics /manifest /debug/vars /debug/pprof/"
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, index)
	})
	return mux
}

// Listen starts handler on addr on a background goroutine and returns
// the resolved listen address (so ":0" works in tests and scripts)
// and the server for a later graceful Shutdown.
func Listen(addr string, handler http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv, nil
}
