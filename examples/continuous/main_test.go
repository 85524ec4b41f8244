package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/continuous.golden from the example's output")

// pinned matches what the example prints the same on every run: each
// request's token stream, and the admission and prefix-cache counters. The
// step, preemption and deferral counts depend on when the engine loop first
// runs relative to the submits, and the latencies on the clock; neither is
// pinned.
var pinned = regexp.MustCompile(`(?m)^request \d+: \[.*\]$|admitted=\d+|prefix hits=\d+|saved \d+ prefill tokens`)

// TestContinuousGolden pins the example's token streams, served by the
// continuous-batching engine from a pre-warmed shared prefix in 16-token
// chunks, and its admission and prefix-hit counters to
// testdata/continuous.golden. After an intended change,
// `go test ./examples/continuous -update` rewrites the file.
func TestContinuousGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, m := range pinned.FindAll(out.Bytes(), -1) {
		got.Write(m)
		got.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "continuous.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from %s:\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
}
