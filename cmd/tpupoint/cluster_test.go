package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/repo"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r) //nolint:errcheck // test capture
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// The cluster verb end to end: simulate the smoke preset, archive the
// fleet into a repository directory, and slice it with the runs list
// filter flags.
func TestClusterVerbArchivesAndListFilters(t *testing.T) {
	dir := t.TempDir()

	out := captureStdout(t, func() error {
		return clusterCmd([]string{"-preset", "smoke", "-policy", "round-robin", "-seed", "3"},
			dir, 0, nil)
	})
	if !strings.Contains(out, "Jain") || !strings.Contains(out, "archived:") {
		t.Fatalf("cluster verb output missing report or archive line:\n%s", out)
	}

	// The repository on disk carries tenant identity.
	vision, err := viewRepo(t, dir).List(repo.Filter{Tenant: "vision"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vision) == 0 {
		t.Fatal("no runs archived for tenant vision")
	}
	for _, info := range vision {
		if info.Tenant != "vision" {
			t.Fatalf("tenant filter leaked run %+v", info)
		}
	}

	// runs list -tenant shows only that tenant's fleet.
	out = captureStdout(t, func() error {
		return runsCmd([]string{"list", "-tenant", "vision"}, dir, 0, false, 0)
	})
	if !strings.Contains(out, "TENANT") || !strings.Contains(out, "vision") {
		t.Fatalf("runs list -tenant output missing tenant column:\n%s", out)
	}
	if strings.Contains(out, "nlp") {
		t.Fatalf("runs list -tenant vision leaked nlp runs:\n%s", out)
	}

	// -workload and -label compose with it.
	out = captureStdout(t, func() error {
		return runsCmd([]string{"list", "-tenant", "nlp", "-workload", "bert-mrpc",
			"-label", "smoke-round-robin"}, dir, 0, false, 0)
	})
	if !strings.Contains(out, "bert-mrpc") {
		t.Fatalf("combined filters matched nothing:\n%s", out)
	}
	out = captureStdout(t, func() error {
		return runsCmd([]string{"list", "-tenant", "nlp", "-workload", "dcgan-mnist"},
			dir, 0, false, 0)
	})
	if !strings.Contains(out, "no runs match the filter") {
		t.Fatalf("impossible filter combination matched:\n%s", out)
	}
}

func TestClusterVerbPresetListing(t *testing.T) {
	out := captureStdout(t, func() error {
		return clusterCmd([]string{"-presets"}, "", 0, nil)
	})
	for _, name := range []string{"smoke", "rush", "fleet"} {
		if !strings.Contains(out, name) {
			t.Fatalf("preset %q missing from -presets output:\n%s", name, out)
		}
	}
	if err := clusterCmd([]string{"-preset", "no-such"}, "", 0, nil); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := clusterCmd([]string{"-preset", "smoke", "stray"}, "", 0, nil); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}
