package cliflag

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestEndpoints(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		bad  bool
	}{
		{in: "", want: nil},
		{in: "  ", want: nil},
		{in: "127.0.0.1:8471", want: []string{"127.0.0.1:8471"}},
		{in: "a:1, b:2 ,c:3", want: []string{"a:1", "b:2", "c:3"}},
		{in: "a:1,,b:2", bad: true},
		{in: "no-port", bad: true},
		{in: "a:1,no-port", bad: true},
	}
	for _, c := range cases {
		got, err := Endpoints(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("Endpoints(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("Endpoints(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Endpoints(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMetricsSinkFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	reg := obs.NewRegistry(8)
	reg.Counter("x").Inc()
	flush, err := MetricsSink("testtool", path, io.Discard, reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	flush()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"x\"") {
		t.Fatalf("snapshot missing counter: %s", data)
	}
}

// TestMetricsSinkServesOnGivenWriter: an address destination announces
// where it serves on the writer the tool passes, not on the process's
// stdout.
func TestMetricsSinkServesOnGivenWriter(t *testing.T) {
	var out bytes.Buffer
	if _, err := MetricsSink("testtool", "127.0.0.1:0", &out, obs.NewRegistry(8), nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "metrics:     serving JSON snapshots at http://127.0.0.1:") {
		t.Fatalf("MetricsSink wrote %q", out.String())
	}
}
