package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

func TestHealthReadinessLifecycle(t *testing.T) {
	h := NewHealth()
	if !h.Ready() {
		t.Fatal("empty health tracker must be ready")
	}
	h.SetFailing("repository", "sweep in progress")
	if h.Ready() {
		t.Fatal("failing component ignored")
	}
	if got := h.FailingComponents(); len(got) != 1 || got[0] != "repository" {
		t.Fatalf("failing = %v", got)
	}
	h.SetReady("repository")
	h.SetReady("collector")
	if !h.Ready() {
		t.Fatal("recovered components still reported unready")
	}
	if got := h.FailingComponents(); len(got) != 0 {
		t.Fatalf("failing = %v, want none", got)
	}
}

func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	reg := NewRegistry(8)
	reg.Counter("x").Inc()
	mux := Mux(reg, h)

	get := func(path string) (int, map[string]any) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return rec.Code, body
	}

	if code, body := get("/healthz"); code != 200 || body["status"] != "alive" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", code, body)
	}

	h.SetFailing("repository", "store unreachable")
	code, body := get("/readyz")
	if code != 503 || body["status"] != "unready" {
		t.Fatalf("readyz while failing = %d %v", code, body)
	}
	comps, _ := body["components"].(map[string]any)
	if comps["repository"] != "store unreachable" {
		t.Fatalf("components = %v", comps)
	}
	// Liveness is unaffected by readiness.
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz while unready = %d", code)
	}
	// The metrics surface still serves at the root.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics root = %d", rec.Code)
	}
}

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	h.SetReady("a")
	h.SetFailing("b", "broken")
	if !h.Ready() {
		t.Fatal("nil health must report ready")
	}
	if got := h.FailingComponents(); got != nil {
		t.Fatalf("failing = %v", got)
	}
	mux := Mux(nil, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("nil readyz = %d", rec.Code)
	}
}
