package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quickstart.golden from the example's output")

// TestQuickstartGolden pins the example's whole report — each method's
// compression ratio, cache bytes, retained tokens and first tokens, the
// streamed tokens and the cost model's figures — to
// testdata/quickstart.golden. The fp16 row's 1.00x is the baseline cache's
// token-exact charge seen end to end. After an intended change,
// `go test ./examples/quickstart -update` rewrites the file.
func TestQuickstartGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "quickstart.golden")
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
