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

// The command handlers. Every reply is a single line (however long) so the
// client's retry-after-reconnect logic never has to resync a partially
// delivered multi-line response.

// cmdHello checks the client's protocol version. There is one version, so
// a mismatch is rejected outright with both versions named.
func (s *Server) cmdHello(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: HELLO <version>")
	}
	v, err := intField(fields, 1, "version")
	if err != nil {
		return err
	}
	if v != ProtocolVersion {
		return fmt.Errorf("protocol version mismatch: client speaks v%d, this daemon speaks v%d", v, ProtocolVersion)
	}
	return writeLine(w, "%s %d %s", replyOK, ProtocolVersion, s.Bench.Platform.Name)
}

func (s *Server) cmdInfo(w *bufio.Writer) error {
	var names []string
	for _, d := range s.Bench.Platform.Domains() {
		names = append(names, fmt.Sprintf("%s/%d", d.Spec.Name, d.Spec.TotalCores))
	}
	return writeLine(w, "%s %s %s", replyOK, s.Bench.Platform.Name, strings.Join(names, " "))
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
	kind, _ := instrument.ScopeFor(spec.VoltageVisibility)
	if kind == "" {
		kind = "-" // the explicit "no scope" token keeps the reply a fixed field count
	}
	return writeLine(w, "%s %d %s %g %g %s %s", replyOK,
		spec.TotalCores, spec.ISA, spec.MaxClockHz, spec.ClockStepHz,
		spec.VoltageVisibility, kind)
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

// cmdLoad reads a LOAD header and its program body. The client flushes the
// body together with the header, so on any validation error detected
// before the body has been consumed the declared lines MUST still be
// drained — otherwise the daemon would dispatch assembly lines as commands
// and the session would desync permanently.
func (s *Server) cmdLoad(sess *session, r *bufio.Reader, w *bufio.Writer, fields []string) error {
	if len(fields) != 4 {
		return fmt.Errorf("usage: LOAD <domain> <cores> <lines>")
	}
	lines, linesErr := intField(fields, 3, "lines")
	canDrain := linesErr == nil && lines >= 1 && lines <= maxProgramLines
	// drain consumes the program body the client already sent, keeping the
	// stream in sync while the command itself fails. Only possible when
	// the declared line count is sane.
	drain := func() {
		if !canDrain {
			return
		}
		for i := 0; i < lines; i++ {
			if _, err := readLine(r); err != nil {
				return
			}
		}
	}
	d, err := s.domain(fields[1])
	if err != nil {
		drain()
		return err
	}
	cores, err := intField(fields, 2, "cores")
	if err != nil {
		drain()
		return err
	}
	if cores < 1 || cores > d.Spec.TotalCores {
		drain()
		return fmt.Errorf("core count %d out of range [1, %d]", cores, d.Spec.TotalCores)
	}
	if linesErr != nil {
		return linesErr
	}
	if !canDrain {
		return fmt.Errorf("line count %d out of range", lines)
	}
	var body strings.Builder
	for i := 0; i < lines; i++ {
		ln, err := readLine(r)
		if err != nil {
			return fmt.Errorf("reading program: %v", err)
		}
		body.WriteString(ln)
		body.WriteByte('\n')
	}
	seq, err := isa.ParseProgram(d.Spec.Pool(), body.String())
	if err != nil {
		return err
	}
	if len(seq) == 0 {
		return fmt.Errorf("program has no instructions")
	}
	sess.current = &loaded{domain: d, load: platform.Load{Seq: seq, ActiveCores: cores}}
	sess.running = false
	return writeLine(w, "%s loaded %d", replyOK, len(seq))
}

func (s *Server) cmdRun(sess *session, w *bufio.Writer) error {
	if sess.current == nil {
		return fmt.Errorf("nothing loaded")
	}
	sess.running = true
	return writeLine(w, "%s running", replyOK)
}

func (s *Server) cmdStop(sess *session, w *bufio.Writer) error {
	sess.running = false
	return writeLine(w, "%s stopped", replyOK)
}

// sampleCount parses an analyzer averaging depth and bounds it.
func sampleCount(fields []string, i int) (int, error) {
	samples, err := intField(fields, i, "samples")
	if err != nil {
		return 0, err
	}
	if samples < 1 || samples > 1000 {
		return 0, fmt.Errorf("sample count %d out of range", samples)
	}
	return samples, nil
}

func (s *Server) cmdMeasure(sess *session, w *bufio.Writer, fields []string) error {
	samples := s.Bench.Samples
	if len(fields) > 1 {
		var err error
		if samples, err = sampleCount(fields, 1); err != nil {
			return err
		}
	}
	if sess.current == nil || !sess.running {
		return fmt.Errorf("no workload running")
	}
	cur := sess.current
	l := s.domLock(cur.domain.Spec.Name)
	l.RLock()
	m, err := s.Bench.EMMeasureN(cur.domain, cur.load, samples)
	l.RUnlock()
	if err != nil {
		return err
	}
	return writeLine(w, "%s %g %g %g", replyOK, m.PeakDBm, m.PeakHz, m.StdevDBm)
}

// cmdVMeasure measures the running workload's voltage noise through the
// bench's DSO measurers (droop depth or peak-to-peak swing), which reject
// domains without voltage visibility with the same typed error a local
// bench raises. EM fitness goes through MEASURE.
func (s *Server) cmdVMeasure(sess *session, w *bufio.Writer, fields []string) error {
	if len(fields) != 4 {
		return fmt.Errorf("usage: VMEASURE <droop|ptp> <samples> <dsoseed>")
	}
	metric := fields[1]
	samples, err := sampleCount(fields, 2)
	if err != nil {
		return err
	}
	dsoSeed, err := int64Field(fields, 3, "dsoseed")
	if err != nil {
		return err
	}
	if sess.current == nil || !sess.running {
		return fmt.Errorf("no workload running")
	}
	cur := sess.current
	bench := s.benchWithSamples(samples)
	// The scope is seeded by the workstation so a remote droop/ptp
	// measurement reuses the exact noise stream a local one would; a domain
	// without one leaves dso nil and the measurer rejects it.
	var dso *instrument.DSO
	if _, newScope := instrument.ScopeFor(cur.domain.Spec.VoltageVisibility); newScope != nil {
		dso = newScope(dsoSeed)
	}
	var m ga.Measurer
	switch metric {
	case "droop":
		m = bench.DroopMeasurer(cur.domain, cur.load.ActiveCores, dso)
	case "ptp":
		m = bench.PtpMeasurer(cur.domain, cur.load.ActiveCores, dso)
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

// cmdSweep measures the Section 5.3 fast sweep's probe loop at every
// listed clock as one core.Bench.SweepBatch campaign (one probe build, one
// primed trace, one band-prefilter pass). The evaluation is stateless —
// the domain's live clock is untouched — and each point is a pure function
// of its snapped clock, so a whole grid in one request, one clock per
// request, or any fleet shard layout agree bit for bit. Each point is a
// fixed four-field group; an out-of-band step is "0 0 0 0".
func (s *Server) cmdSweep(w *bufio.Writer, fields []string) error {
	if len(fields) < 5 {
		return fmt.Errorf("usage: SWEEP <domain> <cores> <samples> <clockHz>...")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	cores, err := intField(fields, 2, "cores")
	if err != nil {
		return err
	}
	samples, err := sampleCount(fields, 3)
	if err != nil {
		return err
	}
	clocks, err := floatFields(fields[4:], "clock")
	if err != nil {
		return err
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	points, err := s.benchWithSamples(samples).SweepBatch(d, cores, clocks)
	l.RUnlock()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d", replyOK, len(points))
	for _, p := range points {
		if p == nil {
			b.WriteString(" 0 0 0 0")
			continue
		}
		fmt.Fprintf(&b, " 1 %g %g %g", p.ClockHz, p.LoopHz, p.PeakDBm)
	}
	return writeLine(w, "%s", b.String())
}

// cmdVmin runs a repeated V_MIN search of the loaded workload with the
// workstation's tester seed and reports the worst run plus every per-run
// V_MIN; carrying the seed is what lets a remote campaign reproduce a
// local one bit for bit.
func (s *Server) cmdVmin(sess *session, w *bufio.Writer, fields []string) error {
	if len(fields) != 3 {
		return fmt.Errorf("usage: VMIN <seed> <repeats>")
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
	clocks, err := floatFields(fields[2:], "clock")
	if err != nil {
		return err
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
		if part.phases, err = floatFields(hf[4:], "phase"); err != nil {
			keep(err)
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

func (s *Server) cmdSet(w *bufio.Writer, fields []string, set func(*platform.Domain, float64) error) error {
	if len(fields) != 3 {
		return fmt.Errorf("usage: %s <domain> <value>", fields[0])
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	v, err := floatField(fields, 2, "value")
	if err != nil {
		return err
	}
	l := s.domLock(d.Spec.Name)
	l.Lock()
	err = set(d, v)
	l.Unlock()
	if err != nil {
		return err
	}
	return writeLine(w, "%s", replyOK)
}

func (s *Server) cmdSetCores(w *bufio.Writer, fields []string) error {
	if len(fields) != 3 {
		return fmt.Errorf("usage: SETCORES <domain> <n>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	n, err := intField(fields, 2, "cores")
	if err != nil {
		return err
	}
	l := s.domLock(d.Spec.Name)
	l.Lock()
	err = d.SetPoweredCores(n)
	l.Unlock()
	if err != nil {
		return err
	}
	return writeLine(w, "%s", replyOK)
}

func (s *Server) cmdReset(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: RESET <domain>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	l := s.domLock(d.Spec.Name)
	l.Lock()
	d.Reset()
	l.Unlock()
	return writeLine(w, "%s", replyOK)
}

// cmdStats ships a domain's evaluation counters (the -v output, rendered by
// core.Bench.EvalStats exactly as a local backend renders them) as one
// quoted string.
func (s *Server) cmdStats(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: STATS <domain>")
	}
	d, err := s.domain(fields[1])
	if err != nil {
		return err
	}
	return writeLine(w, "%s %s", replyOK, strconv.Quote(s.Bench.EvalStats(d)))
}
