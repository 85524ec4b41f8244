package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/kvbench.golden from the command's output")

// TestKVBenchGolden pins every throughput figure and Table 3 (`-fig all`) to
// testdata/kvbench.golden: each cell is a cost-model estimate, so a change to
// the estimator, an engine profile, a hardware or model shape, or a figure's
// method and x-axis lists moves it. After an intended change,
// `go test ./cmd/kvbench -update` rewrites the file.
func TestKVBenchGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, []string{"-fig", "all"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "kvbench.golden")
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
