package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("verylongname", "22")
	tb.AddRow("short") // padded
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Fatalf("header line %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator line %q", lines[2])
	}
	// Columns aligned: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "value")
	if got := strings.Index(lines[3], "1"); got != idx {
		t.Fatalf("column misaligned: %d vs %d\n%s", got, idx, out)
	}
	if len(lines) != 6 {
		t.Fatalf("line count %d\n%s", len(lines), out)
	}
}

func TestSeriesRendering(t *testing.T) {
	out := Series("sweep", "freq", "amp", []float64{1, 2, 3}, []float64{0, 5, 10})
	if !strings.Contains(out, "sweep") || !strings.Contains(out, "freq") {
		t.Fatalf("missing labels:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, strings.Repeat("#", 40)) {
		t.Fatalf("max bar not full width: %q", last)
	}
	first := lines[2]
	if strings.Contains(first, "#") {
		t.Fatalf("min bar should be empty: %q", first)
	}
	// Flat series: no panic, zero-length bars.
	flat := Series("", "x", "y", []float64{1, 2}, []float64{3, 3})
	if strings.Contains(flat, "#") {
		t.Fatalf("flat series produced bars:\n%s", flat)
	}
	empty := Series("t", "x", "y", nil, nil)
	if !strings.Contains(empty, "empty") {
		t.Fatalf("empty series output %q", empty)
	}
}

func TestSeriesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched series")
		}
	}()
	Series("", "x", "y", []float64{1}, []float64{1, 2})
}

func TestFormatters(t *testing.T) {
	cases := []struct{ got, want string }{
		{MHz(67e6), "67.00 MHz"},
		{MV(0.150), "150.0 mV"},
		{Volts(1.3625), "1.363 V"},
		{DBm(-30.25), "-30.2 dBm"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
