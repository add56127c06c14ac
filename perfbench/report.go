package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. samples is the count the value was
// computed from (ops for a percentile, runs of a set-up); it is printed in
// the human-readable table and left out of the JSON result line.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one traced call: a named interval around a call into one layer,
// made by the benchmark's own code. Spans of one op share the op index;
// parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	op, parent int
	start, end time.Duration
}

// tracer keeps the spans of a traced run in memory. A nil *tracer records
// nothing, so untraced runs thread it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of unfinished spans
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].end = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// setOp tags the spans that follow with op index i.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// durations returns the wall and self times (wall minus the time of direct
// children) of every span with the given name.
func (t *tracer) durations(name string) (wall, self []time.Duration) {
	if t == nil {
		return nil, nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.name == name {
			wall = append(wall, s.end-s.start)
			self = append(self, s.end-s.start-child[i])
		}
	}
	return wall, self
}

// summary writes one line per span name: count, median wall and median self
// time.
func (t *tracer) summary(w io.Writer) {
	if t == nil {
		return
	}
	var names []string
	seen := map[string]bool{}
	for _, s := range t.spans {
		if !seen[s.name] {
			seen[s.name] = true
			names = append(names, s.name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans (%d recorded):\n", len(t.spans))
	for _, n := range names {
		wall, self := t.durations(n)
		fmt.Fprintf(w, "  %-22s n=%-6d wall_p50=%.4f ms  self_p50=%.4f ms\n",
			n, len(wall), quantile(durationsMs(wall), 0.5), quantile(durationsMs(self), 0.5))
	}
}

// host describes the machine and build a result came from; results from
// hosts that differ in any field are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
}

func hostInfo() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "unset",
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMiB is the process's high-water resident set (VmHWM), from
// getrusage so no file outside the checkout is read.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the benchmark's machine-readable verdict, printed as the last
// line of standard output.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r result) json() ([]byte, error) {
	jr := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(r.metrics))}
	for _, m := range r.metrics {
		jr.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return json.Marshal(jr)
}

// table writes every metric by name with its unit and sample count, and
// the share of attempted ops that failed.
func (r result) table(w io.Writer, title string) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed, correct=%v\n", title, r.attempted, r.failed, r.correct)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-32s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	fmt.Fprintf(w, "  %-32s %16.6g %-6s n=%d\n", "fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "1", r.attempted)
}
