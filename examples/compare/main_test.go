package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/compare.golden from the example's output")

// TestCompareGolden pins the example's whole report — the chosen sample and
// every method's retention, fidelity, agreement and score on it — to
// testdata/compare.golden. After an intended change,
// `go test ./examples/compare -update` rewrites the file.
func TestCompareGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "compare.golden")
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
