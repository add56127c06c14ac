package lab

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// Protocol-v2 command handlers. Every reply is a single line (however
// long) so the client's retry-after-reconnect logic never has to resync a
// partially delivered multi-line response.

// cmdHello answers the version handshake. The server always reports its
// own version; the client picks min(client, server). A v1 daemon has no
// HELLO at all and answers "ERR unknown command", which the client treats
// as version 1.
func (s *Server) cmdHello(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: HELLO <version>")
	}
	if _, err := intField(fields, 1, "version"); err != nil {
		return err
	}
	return writeLine(w, "%s %d %s", replyOK, ProtocolVersion, s.Bench.Platform.Name)
}

// dsoKindFor names the scope a domain's voltage visibility implies; "-" is
// the explicit "no scope" token so the reply stays a fixed field count.
func dsoKindFor(visibility string) string {
	switch visibility {
	case "oc-dso":
		return "oc-dso"
	case "kelvin-pads":
		return "bench-scope"
	default:
		return "-"
	}
}

func (s *Server) cmdCaps(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: CAPS <domain>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	spec := d.Spec
	return writeLine(w, "%s %d %s %g %g %s %s", replyOK,
		spec.TotalCores, spec.ISA, spec.MaxClockHz, spec.ClockStepHz,
		spec.VoltageVisibility, dsoKindFor(spec.VoltageVisibility))
}

func (s *Server) cmdState(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: STATE <domain>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	clock, supply, powered := d.ClockHz(), d.SupplyVolts(), d.PoweredCores()
	l.RUnlock()
	return writeLine(w, "%s %g %g %d", replyOK, clock, supply, powered)
}

// cmdSweepFull is SWEEP with an explicit sample count and the full point
// list in the reply, so the workstation can render the same table a local
// sweep would. This is also the fleet's fallback for pre-v3 rigs that lack
// SWEEPAT: the whole grid runs here as one core.Bench.SweepBatch campaign
// (one probe build, one primed trace, one band-prefilter pass), so an
// unsharded rig pays batch economics and still agrees bit for bit with a
// sharded layout.
func (s *Server) cmdSweepFull(w *bufio.Writer, fields []string) error {
	if len(fields) != 4 {
		return fmt.Errorf("usage: SWEEPFULL <domain> <cores> <samples>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	cores, err := intField(fields, 2, "cores")
	if err != nil {
		return err
	}
	samples, err := intField(fields, 3, "samples")
	if err != nil {
		return err
	}
	if samples < 1 || samples > 1000 {
		return fmt.Errorf("sample count %d out of range", samples)
	}
	bench := s.Bench
	if samples != bench.Samples {
		b2 := *bench
		b2.Samples = samples
		bench = &b2
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	res, err := bench.FastResonanceSweep(d, cores)
	l.RUnlock()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %g %g %g %d", replyOK, res.ResonanceHz, res.PeakLoopHz, res.PeakDBm, len(res.Points))
	for _, p := range res.Points {
		fmt.Fprintf(&b, " %g %g %g", p.ClockHz, p.LoopHz, p.PeakDBm)
	}
	return writeLine(w, "%s", b.String())
}

// cmdSweepAt serves one fast-sweep point at an explicit clock setting —
// the protocol-v3 primitive behind fleet-sharded sweeps. The point is
// evaluated through the stateless SweepPointAt path (a single-point
// SweepBatch), so the domain's live clock setting is untouched, concurrent
// sessions' points cannot interfere, and the shard agrees bit for bit with
// the same clock inside a whole-grid batch; "OK 0" reports an out-of-band
// step.
func (s *Server) cmdSweepAt(w *bufio.Writer, fields []string) error {
	if len(fields) != 5 {
		return fmt.Errorf("usage: SWEEPAT <domain> <cores> <samples> <clockHz>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	cores, err := intField(fields, 2, "cores")
	if err != nil {
		return err
	}
	samples, err := intField(fields, 3, "samples")
	if err != nil {
		return err
	}
	if samples < 1 || samples > 1000 {
		return fmt.Errorf("sample count %d out of range", samples)
	}
	clock, err := floatField(fields, 4, "clock")
	if err != nil {
		return err
	}
	bench := s.Bench
	if samples != bench.Samples {
		b2 := *bench
		b2.Samples = samples
		bench = &b2
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	pt, err := bench.SweepPointAt(d, cores, clock)
	l.RUnlock()
	if err != nil {
		return err
	}
	if pt == nil {
		return writeLine(w, "%s 0", replyOK)
	}
	return writeLine(w, "%s 1 %g %g %g", replyOK, pt.ClockHz, pt.LoopHz, pt.PeakDBm)
}

// cmdVminFull is VMIN with the workstation's tester seed and the full
// per-run V_MIN list. The v1 VMIN pinned seed 1; carrying the seed is what
// lets a remote campaign reproduce a local one bit-for-bit.
func (s *Server) cmdVminFull(sess *session, w *bufio.Writer, fields []string) error {
	if len(fields) != 3 {
		return fmt.Errorf("usage: VMINFULL <seed> <repeats>")
	}
	seed, err := int64Field(fields, 1, "seed")
	if err != nil {
		return err
	}
	repeats, err := intField(fields, 2, "repeats")
	if err != nil {
		return err
	}
	if repeats < 1 || repeats > 100 {
		return fmt.Errorf("repeat count %d out of range", repeats)
	}
	if sess.current == nil {
		return fmt.Errorf("nothing loaded")
	}
	cur := sess.current
	l := s.domLock(cur.domain.Spec.Name)
	l.RLock()
	tester := vmin.NewTester(cur.domain, seed)
	tester.Parallelism = s.Bench.Parallelism
	res, runs, err := tester.Repeat(cur.load, repeats)
	l.RUnlock()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %g %g %g %s %d", replyOK,
		res.VminV, res.MarginV, res.DroopNominalV, res.Outcome, len(runs))
	for _, v := range runs {
		fmt.Fprintf(&b, " %g", v)
	}
	return writeLine(w, "%s", b.String())
}

// cmdShmoo runs the frequency/voltage shmoo of the loaded workload over
// the clock list in the request, through vmin's batched campaign path
// (one primed trace, snapped-clock dedup, per-column supply ladders).
// Per-point trial noise is keyed by content (seed, load, operating
// point), so neither the target's parallelism nor a fleet's one-cell
// shard layout can change any value.
func (s *Server) cmdShmoo(sess *session, w *bufio.Writer, fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("usage: SHMOO <seed> <clockHz>...")
	}
	seed, err := int64Field(fields, 1, "seed")
	if err != nil {
		return err
	}
	clocks := make([]float64, 0, len(fields)-2)
	for i := 2; i < len(fields); i++ {
		v, err := floatField(fields, i, "clock")
		if err != nil {
			return err
		}
		clocks = append(clocks, v)
	}
	if sess.current == nil {
		return fmt.Errorf("nothing loaded")
	}
	cur := sess.current
	l := s.domLock(cur.domain.Spec.Name)
	l.RLock()
	tester := vmin.NewTester(cur.domain, seed)
	tester.Parallelism = s.Bench.Parallelism
	points, err := tester.Shmoo(cur.load, clocks)
	l.RUnlock()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d", replyOK, len(points))
	for _, p := range points {
		fmt.Fprintf(&b, " %g %g %g %s", p.ClockHz, p.VminV, p.MarginV, p.Outcome)
	}
	return writeLine(w, "%s", b.String())
}

// scopeForVisibility builds the DSO a domain's visibility implies, seeded
// by the workstation so a remote droop/ptp measurement reuses the exact
// noise stream a local one would.
func scopeForVisibility(visibility string, seed int64) *instrument.DSO {
	if visibility == "kelvin-pads" {
		return instrument.NewBenchScope(seed)
	}
	return instrument.NewOCDSO(seed)
}

// cmdVMeasure measures the running workload under a caller-chosen metric.
// The em metric duplicates MEASURE but returns the (fitness, dominant-Hz)
// pair the GA wants; droop and ptp go through the bench's DSO measurers,
// which reject domains without voltage visibility with the same typed
// error a local bench raises.
func (s *Server) cmdVMeasure(sess *session, w *bufio.Writer, fields []string) error {
	if len(fields) != 4 {
		return fmt.Errorf("usage: VMEASURE <metric> <samples> <dsoseed>")
	}
	metric := fields[1]
	samples, err := intField(fields, 2, "samples")
	if err != nil {
		return err
	}
	if samples < 1 || samples > 1000 {
		return fmt.Errorf("sample count %d out of range", samples)
	}
	dsoSeed, err := int64Field(fields, 3, "dsoseed")
	if err != nil {
		return err
	}
	if sess.current == nil || !sess.running {
		return fmt.Errorf("no workload running")
	}
	cur := sess.current
	bench := s.Bench
	if samples != bench.Samples {
		b2 := *bench
		b2.Samples = samples
		bench = &b2
	}
	var m ga.Measurer
	switch metric {
	case "em":
		m = bench.EMMeasurer(cur.domain, cur.load.ActiveCores)
	case "droop":
		m = bench.DroopMeasurer(cur.domain, cur.load.ActiveCores,
			scopeForVisibility(cur.domain.Spec.VoltageVisibility, dsoSeed))
	case "ptp":
		m = bench.PtpMeasurer(cur.domain, cur.load.ActiveCores,
			scopeForVisibility(cur.domain.Spec.VoltageVisibility, dsoSeed))
	default:
		return fmt.Errorf("unknown metric %q", metric)
	}
	l := s.domLock(cur.domain.Spec.Name)
	l.RLock()
	fitness, domHz, err := m.Measure(cur.load.Seq)
	l.RUnlock()
	if err != nil {
		return err
	}
	return writeLine(w, "%s %g %g", replyOK, fitness, domHz)
}

// monitorPart is one domain's workload in a MONITOR request.
type monitorPart struct {
	domain string
	cores  int
	phases []float64
	body   string
}

// cmdMonitor captures one combined spectrum over several domains' loads
// (Figure 15). All part bodies are consumed before validation so a
// rejected part cannot leave program lines in the stream to be dispatched
// as commands.
func (s *Server) cmdMonitor(r *bufio.Reader, w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: MONITOR <nparts>")
	}
	nparts, err := intField(fields, 1, "parts")
	if err != nil {
		return err
	}
	if nparts < 1 || nparts > 16 {
		return fmt.Errorf("part count %d out of range [1, 16]", nparts)
	}
	parts := make([]monitorPart, 0, nparts)
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < nparts; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return fmt.Errorf("reading part header: %v", err)
		}
		hf := strings.Fields(hdr)
		if len(hf) < 4 {
			// Cannot know how many lines follow: the stream is lost.
			return fmt.Errorf("malformed MONITOR part header %q", hdr)
		}
		lines, err := intField(hf, 2, "lines")
		if err != nil {
			return err
		}
		if lines < 1 || lines > maxProgramLines {
			return fmt.Errorf("line count %d out of range", lines)
		}
		nphase, err := intField(hf, 3, "phases")
		if err != nil {
			return err
		}
		if nphase < 0 || nphase > 64 || len(hf) != 4+nphase {
			return fmt.Errorf("phase count mismatch in MONITOR part header %q", hdr)
		}
		part := monitorPart{domain: hf[0]}
		if part.cores, err = intField(hf, 1, "cores"); err != nil {
			keep(err)
		}
		for p := 0; p < nphase; p++ {
			v, err := floatField(hf, 4+p, "phase")
			if err != nil {
				keep(err)
			}
			part.phases = append(part.phases, v)
		}
		var body strings.Builder
		for j := 0; j < lines; j++ {
			ln, err := readLine(r)
			if err != nil {
				return fmt.Errorf("reading part program: %v", err)
			}
			body.WriteString(ln)
			body.WriteByte('\n')
		}
		part.body = body.String()
		parts = append(parts, part)
	}
	if firstErr != nil {
		return firstErr
	}

	loads := make(map[string]platform.Load, len(parts))
	var names []string
	for _, part := range parts {
		d, err := s.domain(part.domain)
		if err != nil {
			return err
		}
		if part.cores < 1 || part.cores > d.Spec.TotalCores {
			return fmt.Errorf("core count %d out of range [1, %d]", part.cores, d.Spec.TotalCores)
		}
		seq, err := isa.ParseProgram(d.Spec.Pool(), part.body)
		if err != nil {
			return err
		}
		if len(seq) == 0 {
			return fmt.Errorf("part %s has no instructions", part.domain)
		}
		if _, dup := loads[part.domain]; dup {
			return fmt.Errorf("duplicate MONITOR part for domain %s", part.domain)
		}
		loads[part.domain] = platform.Load{Seq: seq, ActiveCores: part.cores, PhaseCycles: part.phases}
		names = append(names, part.domain)
	}
	sort.Strings(names)
	for _, name := range names {
		l := s.domLock(name)
		l.RLock()
		defer l.RUnlock()
	}
	sw, err := s.Bench.MonitorAll(loads)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %g %g", replyOK, len(sw.DBm), s.Bench.Analyzer.StartHz, s.Bench.Analyzer.RBWHz)
	for _, v := range sw.DBm {
		fmt.Fprintf(&b, " %g", v)
	}
	return writeLine(w, "%s", b.String())
}

// cmdStats ships a domain's evaluation-cache counters (the -v output) as
// one quoted string.
func (s *Server) cmdStats(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: STATS <domain>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	return writeLine(w, "%s %s", replyOK, strconv.Quote(d.EvalStats()))
}
