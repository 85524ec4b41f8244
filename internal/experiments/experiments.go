// Package experiments contains one runner per table and figure in the
// paper's evaluation (Section 4, Section 5, and the appendices). Each
// runner regenerates the same rows or series the paper reports, using the
// library's real algorithm implementations and the analytical cost model.
// The mapping from experiment id to runner is indexed in DESIGN.md.
package experiments

import (
	"fmt"
	"strings"
)

// Series is one labelled curve: y-values over the shared X axis.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a set of series with axis labels, mirroring one paper subplot.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Format renders the figure as an aligned text table (one column per
// series), which is how cmd binaries print results.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%-12.6g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %14.6g", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a labelled grid of cells, mirroring one paper table.
type Table struct {
	Title   string
	Columns []string
	Rows    []TableRow
}

// TableRow is one labelled table row.
type TableRow struct {
	Label string
	Cells []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-24s", r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %12s", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cell formats a float at sensible precision.
func cell(v float64) string { return fmt.Sprintf("%.4g", v) }

// speedupCell formats a relative speedup the way the paper's Table 3 does.
func speedupCell(v float64) string { return fmt.Sprintf("%.2f×", v) }
