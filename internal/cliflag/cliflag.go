// Package cliflag holds the flag-handling helpers the command-line
// tools share. tpupoint and tpuprof grew identical -metrics plumbing
// and, with replicated collection, both parse endpoint lists
// (-peers on the server, -endpoints on clients); this package is the
// single copy.
package cliflag

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"repro/internal/obs"
)

// Endpoints parses a comma-separated list of host:port addresses,
// preserving order (order is identity for -peers: the i-th entry is
// replica i's endpoint). Whitespace around entries is ignored; empty
// entries and malformed addresses are errors, not silently dropped —
// a replica set with a hole routes sessions into the void.
func Endpoints(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	parts := strings.Split(list, ",")
	out := make([]string, 0, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("endpoint list %q: entry %d is empty", list, i)
		}
		if _, _, err := net.SplitHostPort(p); err != nil {
			return nil, fmt.Errorf("endpoint %q: %w", p, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// MetricsSink interprets a -metrics destination for a tool. A
// parseable host:port serves live JSON snapshots over HTTP (metrics at
// /, liveness at /healthz, readiness at /readyz, fleet-wide collector
// readiness at /fleetz); anything else is a file path the returned
// flush writes the final snapshot to. out gets the line naming the
// served address; tool prefixes error messages; health may be nil when
// the tool has no readiness states (an always-ready Health is served),
// and fleet may be nil when the tool is not a collector replica
// (/fleetz reports an empty fleet).
func MetricsSink(tool, dest string, out io.Writer, reg *obs.Registry, health *obs.Health, fleet *obs.FleetView) (flush func(), err error) {
	if health == nil {
		health = obs.NewHealth()
	}
	if _, _, splitErr := net.SplitHostPort(dest); splitErr == nil {
		l, err := net.Listen("tcp", dest)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintf(out, "metrics:     serving JSON snapshots at http://%s/ (health at /healthz, /readyz; fleet at /fleetz)\n", l.Addr())
		go http.Serve(l, obs.FleetMux(reg, health, fleet)) //nolint:errcheck // serves until process exit
		return func() {}, nil
	}
	return func() {
		f, err := os.Create(dest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing metrics: %v\n", tool, err)
			return
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing metrics: %v\n", tool, err)
		}
	}, nil
}
