// Package report renders experiment results as aligned ASCII tables and
// simple bar-annotated series, the output format of the cmd/repro binary
// and EXPERIMENTS.md.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series renders an x/y series with proportional ASCII bars, useful for
// eyeballing sweeps and GA progressions in a terminal.
func Series(title, xLabel, yLabel string, xs, ys []float64) string {
	if len(xs) != len(ys) {
		panic("report: series length mismatch")
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	if len(xs) == 0 {
		b.WriteString("(empty series)\n")
		return b.String()
	}
	min, max := ys[0], ys[0]
	for _, y := range ys {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	span := max - min
	const barWidth = 40
	fmt.Fprintf(&b, "%14s  %12s\n", xLabel, yLabel)
	for i := range xs {
		bar := 0
		if span > 0 {
			bar = int(math.Round((ys[i] - min) / span * barWidth))
		}
		fmt.Fprintf(&b, "%14.6g  %12.6g  %s\n", xs[i], ys[i], strings.Repeat("#", bar))
	}
	return b.String()
}

// MHz formats a frequency in megahertz.
func MHz(hz float64) string { return fmt.Sprintf("%.2f MHz", hz/1e6) }

// MV formats a voltage in millivolts.
func MV(v float64) string { return fmt.Sprintf("%.1f mV", v*1e3) }

// Volts formats a voltage with millivolt precision.
func Volts(v float64) string { return fmt.Sprintf("%.4g V", v) }

// DBm formats a power level.
func DBm(v float64) string { return fmt.Sprintf("%.1f dBm", v) }
