package experiments

import (
	"strings"
	"testing"

	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
)

func TestFormatters(t *testing.T) {
	f := Figure{Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}}}}
	out := f.Format()
	if !strings.Contains(out, "# t") || !strings.Contains(out, "a") {
		t.Fatalf("figure format: %q", out)
	}
	tb := Table{Title: "tt", Columns: []string{"c"}, Rows: []TableRow{{Label: "r", Cells: []string{"v"}}}}
	if !strings.Contains(tb.Format(), "tt") || !strings.Contains(tb.Format(), "v") {
		t.Fatalf("table format: %q", tb.Format())
	}
}

func TestFig1EngineDecodeShape(t *testing.T) {
	f := Fig1EngineDecode(ThroughputConfig{}, 2048, []int{1, 4, 16})
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	// LMDeploy dominates at every batch.
	byName := map[string]Series{}
	for _, s := range f.Series {
		byName[s.Label] = s
	}
	for i := range byName["lmdeploy"].Y {
		if byName["lmdeploy"].Y[i] <= byName["trl"].Y[i] {
			t.Fatal("lmdeploy should beat trl")
		}
		if byName["trl+fa"].Y[i] <= byName["trl"].Y[i] {
			t.Fatal("trl+fa should beat trl")
		}
	}
}

func TestFig1StreamSpeedupShape(t *testing.T) {
	f := Fig1StreamSpeedup(ThroughputConfig{}, 2048, []int{4, 8, 16})
	byName := map[string]Series{}
	for _, s := range f.Series {
		byName[s.Label] = s
	}
	for i := range byName["trl"].Y {
		if byName["trl"].Y[i] <= byName["lmdeploy"].Y[i] {
			t.Fatalf("TRL speedup should exceed LMDeploy's at point %d", i)
		}
	}
}

func TestFig1PrefillAndDecode(t *testing.T) {
	figs := Fig1Prefill(ThroughputConfig{}, []int{1, 4, 8, 16}, []int{1024, 2048, 4096})
	if len(figs) != 2 {
		t.Fatalf("prefill figs = %d", len(figs))
	}
	decs := Fig1Decode(ThroughputConfig{}, []int{1, 8, 16}, []int{1024, 4096, 8192})
	if len(decs) != 2 {
		t.Fatalf("decode figs = %d", len(decs))
	}
	// Every figure has all five methods.
	for _, f := range append(figs, decs...) {
		if len(f.Series) != 5 {
			t.Fatalf("%s: %d series", f.Title, len(f.Series))
		}
	}
}

func TestFig2And3Run(t *testing.T) {
	figs := Fig2H800([]int{512, 2048}, []int{512, 2048})
	if len(figs) != 2 {
		t.Fatal("fig2 should have two panels")
	}
	// H800 + 70B at TP2 must decode slower than 7B on A6000 but still > 0.
	for _, s := range figs[1].Series {
		for _, y := range s.Y {
			if y <= 0 || y > 500 {
				t.Fatalf("implausible 70B decode throughput %v", y)
			}
		}
	}
	att := Fig3AttentionTime(ThroughputConfig{}, []int{1024, 2048, 4096})
	if len(att) != 2 {
		t.Fatal("fig3 should have two panels")
	}
	// Sparse decode attention time flat; FP16 grows.
	var fp, stream Series
	for _, s := range att[1].Series {
		switch s.Label {
		case "FP16":
			fp = s
		case "Stream":
			stream = s
		}
	}
	if fp.Y[2] < fp.Y[0]*1.5 {
		t.Fatal("fp16 attention time should grow with KV")
	}
	if stream.Y[2] > stream.Y[0]*1.1 {
		t.Fatal("stream attention time should stay flat")
	}
}

func TestTable3Shape(t *testing.T) {
	tb := Table3TP(ThroughputConfig{})
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := tb.Format()
	if !strings.Contains(out, "prefill TP=1") || !strings.Contains(out, "decode TP=4") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}

func TestAppendixTPFigures(t *testing.T) {
	figs := AppendixTPFigures(ThroughputConfig{HW: gpu.A6000, Model: model.Mistral7B}, []int{1, 8})
	if len(figs) != 2 {
		t.Fatal("expected quant + sparse panels")
	}
	if len(figs[0].Series) != 9 { // 3 methods × 3 TP degrees
		t.Fatalf("series = %d", len(figs[0].Series))
	}
}

func TestTable5AndFig4(t *testing.T) {
	tb := Table5Shift(800, 1)
	if len(tb.Rows) != 2 || len(tb.Rows[0].Cells) != 6 {
		t.Fatalf("table 5 shape: %+v", tb)
	}
	figs := Fig4LengthDistribution(500, 2)
	if len(figs) != 4 {
		t.Fatalf("fig4 panels = %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Fatalf("%s: series = %d", f.Title, len(f.Series))
		}
		// Densities non-negative.
		for _, s := range f.Series {
			for _, y := range s.Y {
				if y < 0 {
					t.Fatal("negative density")
				}
			}
		}
	}
}

func TestFig5CDFMonotone(t *testing.T) {
	f := Fig5E2ECDF(300, 3)
	if len(f.Series) != 5 {
		t.Fatalf("series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s: quantiles not monotone", s.Label)
			}
		}
	}
}

func TestTable4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-model table in -short")
	}
	tb := Table4Verbosity(6, 4)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0].Cells[0] == "" {
		t.Fatal("empty semantic score")
	}
}

func TestNegativeStudyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-model study in -short")
	}
	st := RunNegativeStudy(40, 192, 5)
	figs := st.Fig6Thresholds()
	if len(figs) != 2 {
		t.Fatal("fig6 panels")
	}
	for _, f := range figs {
		for _, s := range f.Series {
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] > s.Y[i-1] {
					t.Fatalf("%s/%s: negatives must not grow with threshold", f.Title, s.Label)
				}
			}
		}
		// Combined series is the last: never above the singles.
		comb := f.Series[2]
		for i := range comb.Y {
			if comb.Y[i] > f.Series[0].Y[i] || comb.Y[i] > f.Series[1].Y[i] {
				t.Fatal("combined negatives exceed a single method's")
			}
		}
	}
	bd := st.Fig7TaskBreakdown()
	if len(bd.Rows) != 4 {
		t.Fatalf("fig7 rows = %d", len(bd.Rows))
	}
	t7 := st.Table7NegativeBenchmark()
	if len(t7.Rows) != 3 {
		t.Fatalf("table7 rows = %d", len(t7.Rows))
	}
}

func TestTable6Runs(t *testing.T) {
	tb := Table6Predictors(7)
	if len(tb.Rows) != 2 || len(tb.Rows[0].Cells) != 5 {
		t.Fatalf("table 6 shape: %+v", tb)
	}
	for _, row := range tb.Rows {
		for i, c := range row.Cells {
			if !strings.HasSuffix(c, "%") {
				t.Fatalf("cell %d not a percentage: %q", i, c)
			}
		}
	}
}

func TestTable8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("router study in -short")
	}
	tb, err := Table8Router(200, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := tb.Format()
	if !strings.Contains(out, "w/ Both") {
		t.Fatalf("missing policy rows:\n%s", out)
	}
}

// TestToolTablesGolden pins the cells of Tables 6 and 8 at the sizes the
// facade benchmarks run: a change to a predictor's seeds, training trace or
// feature salt shows here as a changed cell, where the shape tests above
// would pass.
func TestToolTablesGolden(t *testing.T) {
	t8, err := Table8Router(120, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tb   Table
		want map[string][]string
	}{
		{Table6Predictors(1), map[string][]string{
			"Throughput Predictor": {"93.8%", "94.9%", "94.0%", "95.1%", "95.3%"},
			"Length Predictor":     {"89.1%", "87.2%", "87.6%", "86.7%", "86.0%"},
		}},
		{t8, map[string][]string{
			"Baseline":      {"24.1", "23.7", "25.0", "26.6", "25.0"},
			"w/ Throughput": {"-", "20.3", "20.9", "21.2", "18.8"},
			"w/ Length":     {"-", "27.3", "26.6", "28.7", "27.8"},
			"w/ Both":       {"-", "19.0", "21.2", "19.0", "18.4"},
		}},
	} {
		if len(c.tb.Rows) != len(c.want) {
			t.Fatalf("%s: %d rows, want %d", c.tb.Title, len(c.tb.Rows), len(c.want))
		}
		for _, row := range c.tb.Rows {
			if got, want := strings.Join(row.Cells, " "), strings.Join(c.want[row.Label], " "); got != want {
				t.Errorf("%s, %s: cells %s, want %s", c.tb.Title, row.Label, got, want)
			}
		}
	}
}
