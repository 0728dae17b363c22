package fleet

import (
	"context"
	"fmt"

	"wsrs/internal/otrace"
	"wsrs/internal/otrace/federate"
	"wsrs/internal/serve"
)

// This file is the coordinator's observability surface: the
// serve.FleetObserver implementation behind /v1/fleet/metrics,
// /v1/fleet/status and stitched traces.

// FleetMembers lists every configured backend, up or down — the
// federation fan-out targets. Implements serve.FleetObserver.
func (c *Coordinator) FleetMembers() []string {
	return append([]string(nil), c.opts.Backends...)
}

// FleetTrace fetches one member's span document for a trace ID — the
// member-side half of trace stitching. Implements serve.FleetObserver.
func (c *Coordinator) FleetTrace(ctx context.Context, member, traceID string) (otrace.Document, error) {
	client, ok := c.clients[member]
	if !ok {
		return otrace.Document{}, fmt.Errorf("unknown fleet member %q", member)
	}
	return client.TraceByID(ctx, traceID)
}

// FleetMetrics fetches one member's raw Prometheus exposition for
// federation. Implements serve.FleetObserver.
func (c *Coordinator) FleetMetrics(ctx context.Context, member string) ([]byte, error) {
	client, ok := c.clients[member]
	if !ok {
		return nil, fmt.Errorf("unknown fleet member %q", member)
	}
	return client.RawMetrics(ctx)
}

// FleetHealth reports the prober's and breakers' view of every
// configured backend. Implements serve.FleetObserver.
func (c *Coordinator) FleetHealth() []federate.MemberHealth {
	out := make([]federate.MemberHealth, 0, len(c.opts.Backends))
	for _, b := range c.opts.Backends {
		out = append(out, federate.MemberHealth{
			Member:  b,
			Healthy: !c.health.isDown(b),
			Breaker: c.breakers[b].State(),
		})
	}
	return out
}

// compile-time check: the coordinator satisfies the observability
// surface serve mounts behind /v1/fleet/*.
var _ serve.FleetObserver = (*Coordinator)(nil)
