// Process health: the liveness and readiness surface a deployed
// collector (or any long-running tpupoint mode) exposes next to its
// metrics. Liveness (/healthz) is "the process responds" and is always
// OK once the listener is up. Readiness (/readyz) is component-based:
// subsystems report in by name (repository opened, sessions recovered,
// listener bound), and the process is ready only when no reporting
// component is failing — an orchestrator keeps traffic away from a
// collector that is still sweeping its repository or lost its store.
//
// Like the rest of the package, everything is nil-safe: a nil *Health
// swallows updates and reports ready, so serving paths never branch on
// whether health tracking is enabled.
package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Health tracks named component states for readiness reporting.
type Health struct {
	mu     sync.Mutex
	states map[string]string // component -> "" (ready) or failure reason
}

// NewHealth returns an empty health tracker: no components have
// reported, so the process is ready by default.
func NewHealth() *Health {
	return &Health{states: make(map[string]string)}
}

// SetReady marks component healthy. Nil-safe.
func (h *Health) SetReady(component string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.states[component] = ""
	h.mu.Unlock()
}

// SetFailing marks component unhealthy with a reason. Nil-safe.
func (h *Health) SetFailing(component, reason string) {
	if h == nil {
		return
	}
	if reason == "" {
		reason = "failing"
	}
	h.mu.Lock()
	h.states[component] = reason
	h.mu.Unlock()
}

// Ready reports whether no component is failing.
func (h *Health) Ready() bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, reason := range h.states {
		if reason != "" {
			return false
		}
	}
	return true
}

// healthStatus is the JSON document both endpoints serve.
type healthStatus struct {
	Status     string            `json:"status"`
	Components map[string]string `json:"components,omitempty"`
}

// snapshot renders the component map with ready components shown as
// "ready" (a reason string is a failure).
func (h *Health) snapshot() healthStatus {
	st := healthStatus{Status: "ready"}
	if h == nil {
		return st
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.states) > 0 {
		st.Components = make(map[string]string, len(h.states))
	}
	for component, reason := range h.states {
		if reason == "" {
			st.Components[component] = "ready"
		} else {
			st.Components[component] = reason
			st.Status = "unready"
		}
	}
	return st
}

// FailingComponents lists failing components sorted by name — the
// operator-facing order is deterministic.
func (h *Health) FailingComponents() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for component, reason := range h.states {
		if reason != "" {
			out = append(out, component)
		}
	}
	sort.Strings(out)
	return out
}

// LivenessHandler always answers 200: reaching it proves the process
// is serving.
func (h *Health) LivenessHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeHealthJSON(w, http.StatusOK, healthStatus{Status: "alive"})
	})
}

// ReadinessHandler answers 200 when every reporting component is
// ready, 503 otherwise, with the component map either way.
func (h *Health) ReadinessHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		st := h.snapshot()
		code := http.StatusOK
		if st.Status != "ready" {
			code = http.StatusServiceUnavailable
		}
		writeHealthJSON(w, code, st)
	})
}

func writeHealthJSON(w http.ResponseWriter, code int, st healthStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// Mux assembles the standard observability surface: metrics snapshots
// at /, liveness at /healthz, readiness at /readyz. Either argument
// may be nil (nil registry serves an empty snapshot; nil health is
// always alive and ready).
func Mux(r *Registry, h *Health) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/healthz", h.LivenessHandler())
	mux.Handle("/readyz", h.ReadinessHandler())
	mux.Handle("/", r)
	return mux
}
