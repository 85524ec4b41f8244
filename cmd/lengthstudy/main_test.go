package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/lengthstudy.golden from the command's output")

// TestLengthStudyGolden pins Tables 4, 5 and 9 and Figures 4, 5, 15 and 16
// (`-fig all` at the default 1,000 samples) to testdata/lengthstudy.golden:
// the length model's draws, the KDE and the latency CDF's cost estimates, and
// Table 4's tiny-model decodes under every method. After an intended change,
// `go test ./cmd/lengthstudy -update` rewrites the file.
func TestLengthStudyGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, []string{"-fig", "all"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "lengthstudy.golden")
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
