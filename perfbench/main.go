// Command perfbench is the repository's end-to-end and per-layer
// performance benchmark. Each invocation runs one workload over a fixed
// work list derived from --seed, times every op from outside through the
// program's public entry points, checks the outputs, and prints every
// metric with its unit and sample count, then one JSON result line:
//
//	bash perfbench/run.sh --workload ga-search --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same work list untraced and then traced, replays the
// traced run's measurements stage by stage, and reports the per-layer
// metrics instead. --workload all runs every workload in a child process of
// its own and compares the GA digests of ga-search and remote-lab. See
// README.md for the workloads, the metrics and the host noise they are
// designed around.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/uarch"
)

// processStart is as close to process start as the program can observe.
var processStart = time.Now()

// An untraced run performs its set-up at least minSetups times, and again
// while the set-ups so far took under setupBudget, up to maxSetups; setup_s
// is the median. Cheap set-ups thus get many samples, costly ones few.
const (
	minSetups   = 3
	maxSetups   = 51
	setupBudget = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ga-search, op-campaign, restart, remote-lab, or all")
	seed := fs.Int64("seed", 1, "workload seed; the work list is a pure function of it")
	seconds := fs.Int("seconds", 20, "nominal run length in seconds; sizes the fixed work list")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	// A store named by the environment would serve measurements from
	// earlier processes; only restart installs one, and only its own.
	os.Unsetenv("REPRO_CACHE_DIR")
	cfg := runConfig{seed: *seed, seconds: *seconds, scratch: filepath.Join(".bench_build", "tmp")}

	if *name == "all" {
		return runAll(cfg, *trace == 1, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, cfg, *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// pass is one run over a work list.
type pass struct {
	opTimes   []time.Duration
	work      int
	wall      time.Duration // first op start to last op end, preparation included
	rssMiB    float64       // peak RSS when the last op ended, before the whole-run checks
	attempted int
	failed    map[int]error
	c         *counters
}

// runPass steps a session through its whole work list, timing each op;
// tr is the tracer the session was opened with (nil when untraced).
func runPass(s session, tr *tracer) pass {
	p := pass{failed: map[int]error{}, attempted: s.ops()}
	start := time.Now()
	for i := 0; i < s.ops(); i++ {
		tr.setOp(i)
		if err := s.prepare(i); err != nil {
			p.failed[i] = err
			continue
		}
		t0 := time.Now()
		work, err := s.op(i)
		dt := time.Since(t0)
		if err != nil {
			p.failed[i] = err
			continue
		}
		p.opTimes = append(p.opTimes, dt)
		p.work += work
		if err := s.after(i); err != nil {
			p.failed[i] = err
		}
	}
	p.wall = time.Since(start)
	p.rssMiB = peakRSSMiB()
	for i, err := range s.finish() {
		if _, dup := p.failed[i]; !dup {
			p.failed[i] = err
		}
	}
	p.c = s.counters()
	return p
}

// checkNoStore fails when a persistent store is installed in any cache
// tier outside the restart workload's own session.
func checkNoStore() error {
	if uarch.PersistentStore() != nil || platform.PersistentStore() != nil || core.PersistentStore() != nil {
		return errors.New("a persistent store is installed outside the restart workload")
	}
	return nil
}

// openTimed opens a session and reports how long set-up took, measured
// from since.
func openTimed(w workloadDef, cfg runConfig, tr *tracer, since time.Time) (session, time.Duration, error) {
	if err := checkNoStore(); err != nil {
		return nil, 0, err
	}
	s, err := w.open(cfg, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, time.Since(since), nil
}

func closeSession(s session) error {
	if err := s.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return checkNoStore()
}

func runWorkload(w workloadDef, cfg runConfig, traced bool, stdout, stderr io.Writer) (result, error) {
	hj, err := json.Marshal(hostInfo())
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "host %s\n", hj)
	fmt.Fprintf(stdout, "workload %s: seed %d, %d nominal seconds, work unit: %s\n", w.name, cfg.seed, cfg.seconds, w.unit)
	if !traced {
		return endToEnd(w, cfg, stdout, stderr)
	}

	// The traced pass runs first, so it also carries the process's warm-up
	// (heap growth, FFT plans) and the overhead reads high rather than low.
	tr := newTracer()
	tp, err := runFresh(w, cfg, tr)
	if err != nil {
		return result{}, err
	}
	plain, err := runFresh(w, cfg, nil)
	if err != nil {
		return result{}, err
	}
	stages, replayFailed := replayAll(tp.c.measurements, tp.c.columns)
	for i, err := range replayFailed {
		if _, dup := tp.failed[i]; !dup {
			tp.failed[i] = err
		}
	}
	if tp.c.digest != "" {
		fmt.Fprintf(stdout, "digest %s %s\n", w.name, tp.c.digest)
	}
	reportFailures(stderr, tp.failed)
	reportFailures(stderr, plain.failed)
	res := perLayer(plain, tp, tr, stages)
	tr.summary(stdout)
	fmt.Fprintf(stdout, "replayed %d measurements and %d shmoo columns stage by stage\n",
		len(tp.c.measurements), len(tp.c.columns))
	res.table(stdout, w.name+" (traced)")
	return res, nil
}

// endToEnd sets the workload up several times, runs its work list untraced
// and computes the end-to-end metrics. fail_ratio is printed in the table;
// the JSON result carries it as attempted and failed, because a metric that
// reads 0 on every good run cannot have a relative bound.
func endToEnd(w workloadDef, cfg runConfig, stdout, stderr io.Writer) (result, error) {
	// The first set-up is timed from process start; the others alone.
	var setups []float64
	var total time.Duration
	var s session
	since := processStart
	for k := 0; k < maxSetups && (k < minSetups || total < setupBudget); k++ {
		if s != nil {
			if err := closeSession(s); err != nil {
				return result{}, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = openTimed(w, cfg, nil, since); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		total += d
		since = time.Now()
	}
	p := runPass(s, nil)
	if err := closeSession(s); err != nil {
		return result{}, err
	}
	if p.c.digest != "" {
		fmt.Fprintf(stdout, "digest %s %s\n", w.name, p.c.digest)
	}
	reportFailures(stderr, p.failed)

	ms := durationsMs(p.opTimes)
	res := result{attempted: p.attempted, failed: len(p.failed)}
	res.correct = res.failed == 0
	res.metrics = []metric{
		{"setup_s", "s", quantile(setups, 0.5), len(setups)},
		{"work_per_s", "1/s", float64(p.work) / p.wall.Seconds(), p.work},
		{"op_ms_p50", "ms", quantile(ms, 0.5), len(ms)},
		{"op_ms_p90", "ms", quantile(ms, 0.9), len(ms)},
		{"peak_rss_mib", "MiB", p.rssMiB, 1},
	}
	res.table(stdout, w.name)
	return res, nil
}

// runFresh opens a session, runs its whole work list and closes it.
func runFresh(w workloadDef, cfg runConfig, tr *tracer) (pass, error) {
	s, _, err := openTimed(w, cfg, tr, time.Now())
	if err != nil {
		return pass{}, err
	}
	p := runPass(s, tr)
	return p, closeSession(s)
}

func reportFailures(w io.Writer, failed map[int]error) {
	ops := make([]int, 0, len(failed))
	for i := range failed {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	for k, i := range ops {
		if k == 5 {
			fmt.Fprintf(w, "... and %d more failed ops\n", len(ops)-k)
			break
		}
		fmt.Fprintf(w, "op %d failed: %v\n", i, failed[i])
	}
}

// runAll runs every workload in a child process of its own, so each
// starts with empty process-wide caches and its peak RSS is its own, and
// prints their metrics together.
func runAll(cfg runConfig, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	combined := result{correct: true}
	digests := map[string]string{}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", map[bool]string{false: "0", true: "1"}[traced]}
		cmd := exec.Command(exe, args...)
		cmd.Env = childEnv()
		cmd.Stderr = stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			combined.correct = false
			continue
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var jr jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: result line: %v\n", w.name, err)
			combined.correct = false
			continue
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
			if f := strings.Fields(l); len(f) == 3 && f[0] == "digest" {
				digests[f[1]] = f[2]
			}
		}
		combined.correct = combined.correct && jr.Correct
		combined.attempted += jr.Attempted
		combined.failed += jr.Failed
		names := make([]string, 0, len(jr.Metrics))
		for n := range jr.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := jr.Metrics[n]
			combined.metrics = append(combined.metrics, metric{name: w.name + "/" + n, unit: m.Unit, value: m.Value})
		}
	}
	if a, b := digests["ga-search"], digests["remote-lab"]; a == "" || a != b {
		fmt.Fprintf(stderr, "perfbench: ga-search digest %q and remote-lab digest %q differ\n", a, b)
		combined.correct = false
	} else {
		fmt.Fprintf(stdout, "ga-search and remote-lab digests agree: %s\n", a)
	}
	line, err := combined.json()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !combined.correct {
		return 1
	}
	return 0
}

// childEnv is the environment without REPRO_CACHE_DIR.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "REPRO_CACHE_DIR=") {
			env = append(env, kv)
		}
	}
	return env
}
