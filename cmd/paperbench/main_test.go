package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

const goldenPath = "testdata/paperbench.golden"

// TestPaperGolden regenerates the whole reproduction through run, with
// -json, and compares stdout and the rendered JSON document byte for
// byte with the golden. A figure that moves fails here, naming its block.
func TestPaperGolden(t *testing.T) {
	if raceEnabled {
		// One full reproduction: a race-built paperbench took 63.5 s
		// against 4.6 s without, on a 2-vCPU VM. scripts/check.sh runs
		// this test without -race and fails unless it passes.
		t.Skip("skipped under -race: one full paperbench run takes about a minute there")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "paper.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-json", jsonPath}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	checkGolden(t, "stdout", stdout.Bytes(), want)
	if got, want := stderr.String(), "wrote machine-readable results to "+jsonPath+"\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var p experiments.Paper
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("decoding the -json document: %v", err)
	}
	checkGolden(t, "the -json document, rendered", render(&p), want)
}

// checkGolden fails unless got equals the golden, naming each artifact
// block that differs.
func checkGolden(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("%s differs from %s:\n%s\nIf the change is intended, re-pin with\n\tgo run ./cmd/paperbench > cmd/paperbench/testdata/paperbench.golden",
		what, goldenPath, strings.Join(blockDiffs(string(got), string(want)), "\n"))
}

// blockDiffs splits both texts into blocks at blank lines, keys each
// block by its title (first) line, and describes every block that is
// missing, unexpected or different, with its first differing lines.
func blockDiffs(got, want string) []string {
	gotOrder, gotBlocks := splitBlocks(got)
	wantOrder, wantBlocks := splitBlocks(want)
	var out []string
	for _, title := range wantOrder {
		g, ok := gotBlocks[title]
		if !ok {
			out = append(out, fmt.Sprintf("block %q: missing", title))
			continue
		}
		w := wantBlocks[title]
		var lines []string
		for i := 0; i < max(len(g), len(w)) && len(lines) < 3; i++ {
			gl, wl := lineAt(g, i), lineAt(w, i)
			if gl != wl {
				lines = append(lines, fmt.Sprintf("  line %d:\n    want %q\n    got  %q", i+1, wl, gl))
			}
		}
		if len(lines) > 0 {
			out = append(out, fmt.Sprintf("block %q differs:\n%s", title, strings.Join(lines, "\n")))
		}
	}
	for _, title := range gotOrder {
		if _, ok := wantBlocks[title]; !ok {
			out = append(out, fmt.Sprintf("block %q: unexpected", title))
		}
	}
	if len(out) == 0 {
		out = append(out, "every block matches; the blank lines between them differ")
	}
	return out
}

// splitBlocks returns the title lines of text's non-empty blank-line
// separated blocks, in order, and each block's lines after its title.
func splitBlocks(text string) ([]string, map[string][]string) {
	var order []string
	blocks := map[string][]string{}
	for _, blk := range strings.Split(text, "\n\n") {
		lines := strings.Split(strings.Trim(blk, "\n"), "\n")
		if lines[0] == "" {
			continue
		}
		if _, dup := blocks[lines[0]]; !dup {
			order = append(order, lines[0])
		}
		blocks[lines[0]] = lines[1:]
	}
	return order, blocks
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}

// TestRunRefusesBadArguments checks the exit-2 paths that never start
// the reproduction.
func TestRunRefusesBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-only", "fig10"}, {"extra"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != errUsage {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q to stdout", args, stdout.String())
		}
	}
}

// TestBlockDiffsNamesTheBlock checks the failure message's block and
// line naming on a hand-made pair.
func TestBlockDiffsNamesTheBlock(t *testing.T) {
	want := "Figure 4: a\nx 1\n\nFigure 5: b\nbert-mrpc 0.043\ny 2\n\n"
	got := "Figure 4: a\nx 1\n\nFigure 5: b\nbert-mrpc 0.041\ny 2\n\nFigure 6: c\n\n"
	diffs := strings.Join(blockDiffs(got, want), "\n")
	for _, sub := range []string{`block "Figure 5: b" differs`, `"bert-mrpc 0.043"`, `"bert-mrpc 0.041"`, `block "Figure 6: c": unexpected`} {
		if !strings.Contains(diffs, sub) {
			t.Errorf("diff lacks %q:\n%s", sub, diffs)
		}
	}
	if strings.Contains(diffs, "Figure 4") {
		t.Errorf("diff names the unchanged block:\n%s", diffs)
	}
}
