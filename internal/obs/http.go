package obs

import (
	"fmt"
	"net/http"
)

// RegisterHTTP registers the standard observability endpoints for c on
// mux: /metrics in the Prometheus text exposition format and
// /debug/vars serving the collector's snapshot as JSON under name (the
// same name the collector is published under in the process-wide
// expvar registry). It is the single place the HTTP export wiring
// lives — the assocfind -metrics-addr listener and the resident query
// server both register through it.
func RegisterHTTP(mux *http.ServeMux, name string, c *Collector) {
	publish(name, c)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = c.WriteTo(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{%q: %s}\n", name, c.expvarFunc().String())
	})
}
