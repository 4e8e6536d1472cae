//go:build race

package main

// raceEnabled reports whether the race detector is compiled in;
// TestPaperGolden skips under it.
const raceEnabled = true
