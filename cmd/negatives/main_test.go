package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/negatives.golden from the command's output")

// TestNegativesGolden pins Figures 6 and 7 and Table 7 at eight samples to
// testdata/negatives.golden: every cell comes from decoding the tiny model
// under KIVI, GEAR, H2O and StreamingLLM, so a change to any method's stored
// values, or to the forward pass, moves it. After an intended change,
// `go test ./cmd/negatives -update` rewrites the file.
func TestNegativesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, []string{"-n", "8"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "negatives.golden")
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
