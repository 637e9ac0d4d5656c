package obs

import (
	"expvar"
	"sync"
)

// expvarFunc returns an expvar.Func whose value is the collector's
// snapshot, so the full counter/gauge/span state appears as one JSON
// object under /debug/vars.
func (c *Collector) expvarFunc() expvar.Func {
	return expvar.Func(func() any { return c.snapshot() })
}

var (
	publishMu sync.Mutex
	published = map[string]bool{}
)

// publish registers the collector under name in the process-wide expvar
// registry. Unlike expvar.Publish it is idempotent: re-publishing a
// name rebinds it to c instead of panicking, so CLIs and tests can call
// it unconditionally.
func publish(name string, c *Collector) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if published[name] {
		// expvar has no unpublish; rebind through an indirection-free
		// re-registration is impossible, so keep a forwarding layer.
		rebind(name, c)
		return
	}
	published[name] = true
	targets[name] = c
	expvar.Publish(name, expvar.Func(func() any { return lookup(name).snapshot() }))
}

var targets = map[string]*Collector{}

func rebind(name string, c *Collector) { targets[name] = c }

func lookup(name string) *Collector {
	publishMu.Lock()
	defer publishMu.Unlock()
	return targets[name]
}
