package lab

import (
	"bufio"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// The command handlers. Every reply is a single line (however long) so the
// client's retry-after-reconnect logic never has to resync a partially
// delivered multi-line response.

// cmdHello checks the client's protocol version. There is one version, so
// a mismatch is rejected outright with both versions named. The reply
// names the platform and the analyzer seed, so a workstation can tell a
// rig whose measurements will differ from its own -seed.
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
	return writeLine(w, "%s %d %s %d", replyOK, ProtocolVersion, s.Bench.Platform.Name, s.Bench.Analyzer.Seed())
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
	powered := d.PoweredCores()
	l.RUnlock()
	return writeLine(w, "%s %d", replyOK, powered)
}

// part is one domain's workload as a request carries it: a header
// "<domain> <cores> <lines> <nphase> [phase...]" and <lines> program
// lines. VMEASURE, VMIN and SHMOO are each followed by exactly one part,
// MEASURE and MONITOR by the count their request line gives.
type part struct {
	domain string
	cores  int
	phases []float64
	body   string
	err    error // first bad header field, reported once the body is read
}

// errStreamLost marks a request whose remaining bytes cannot be located: a
// part header without a readable line count leaves nothing to tell where
// its program ends, so the session is closed rather than left to dispatch
// assembly lines as commands.
var errStreamLost = errors.New("lab: request stream lost")

// readPart consumes one part in full before anything in it or in its
// request line is validated. The client flushes the parts together with
// the request, so a rejected request can never leave program lines in the
// stream to be dispatched as commands. Only an unreadable line count is an
// error here (errStreamLost); any other bad header field is kept in
// part.err and reported once the body is read. The program lines are
// appended straight from the reader's buffer into the part's text, which
// is the only string the body costs.
func readPart(r *bufio.Reader) (part, error) {
	hdr, err := readLine(r)
	if err != nil {
		return part{}, fmt.Errorf("%w: reading part header: %v", errStreamLost, err)
	}
	hf := strings.Fields(hdr)
	lines, err := intField(hf, 2, "lines")
	if err == nil && (lines < 1 || lines > maxProgramLines) {
		err = fmt.Errorf("line count %d out of range", lines)
	}
	if err != nil {
		return part{}, fmt.Errorf("%w: part header %q: %v", errStreamLost, hdr, err)
	}
	p := part{domain: hf[0]}
	nphase, err := intField(hf, 3, "phases")
	switch {
	case err != nil:
		p.err = err
	case nphase < 0 || nphase > 64 || len(hf) != 4+nphase:
		p.err = fmt.Errorf("phase count mismatch in part header %q", hdr)
	default:
		if p.cores, p.err = intField(hf, 1, "cores"); p.err == nil {
			p.phases, p.err = floatFields(hf[4:], "phase")
		}
	}
	var body strings.Builder
	body.Grow(min(lines, 128) * 32)
	var buf [256]byte
	for i := 0; i < lines; i++ {
		ln, err := appendLine(buf[:0], r, maxLineLen)
		if err != nil {
			return part{}, fmt.Errorf("%w: reading part program: %v", errStreamLost, err)
		}
		body.Write(ln)
		body.WriteByte('\n')
	}
	p.body = body.String()
	return p, nil
}

// load resolves a part on the daemon's platform: a known domain, a core
// count within it and a non-empty program in the domain's instruction
// pool.
func (s *Server) load(p part) (*platform.Domain, platform.Load, error) {
	if p.err != nil {
		return nil, platform.Load{}, p.err
	}
	d, err := s.domain(p.domain)
	if err != nil {
		return nil, platform.Load{}, err
	}
	if p.cores < 1 || p.cores > d.Spec.TotalCores {
		return nil, platform.Load{}, fmt.Errorf("core count %d out of range [1, %d]", p.cores, d.Spec.TotalCores)
	}
	seq, err := isa.ParseProgram(d.Spec.Pool(), p.body)
	if err != nil {
		return nil, platform.Load{}, err
	}
	if len(seq) == 0 {
		return nil, platform.Load{}, fmt.Errorf("part %s has no instructions", p.domain)
	}
	return d, platform.Load{Seq: seq, ActiveCores: p.cores, PhaseCycles: p.phases}, nil
}

// readRequestPart reads the part that follows a single-part request, then
// rejects a request line of the wrong shape. The caller validates the
// request's fields next and resolves the part last.
func readRequestPart(r *bufio.Reader, shapeOK bool, usage string) (part, error) {
	p, err := readPart(r)
	if err == nil && !shapeOK {
		err = fmt.Errorf("usage: %s", usage)
	}
	return p, err
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

// cmdMeasure measures each part's averaged EM peak with one
// Bench.EMMeasureBatch call, the GA's fitness observable, and streams one
// reply line per part as the batch reaches it. Every part must name the
// same domain; a rejected part is named in the ERR.
func (s *Server) cmdMeasure(r *bufio.Reader, w *bufio.Writer, fields []string) error {
	if len(fields) != 3 {
		return fmt.Errorf("%w: usage: MEASURE <samples> <nparts> + parts", errStreamLost)
	}
	nparts, err := intField(fields, 2, "parts")
	if err == nil && (nparts < 0 || nparts > MaxMeasureParts) {
		err = fmt.Errorf("part count %d out of range [1, %d]", nparts, MaxMeasureParts)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errStreamLost, err)
	}
	parts := make([]part, nparts)
	for i := range parts {
		if parts[i], err = readPart(r); err != nil {
			return err
		}
	}
	samples, err := sampleCount(fields, 1)
	if err != nil {
		return err
	}
	if nparts == 0 {
		return fmt.Errorf("part count 0 out of range [1, %d]", MaxMeasureParts)
	}
	var d *platform.Domain
	loads := make([]platform.Load, nparts)
	for i, p := range parts {
		dk, load, err := s.load(p)
		if err != nil {
			return fmt.Errorf("part %d: %w", i+1, err)
		}
		if d == nil {
			d = dk
		} else if dk != d {
			return fmt.Errorf("part %d: domain %s, but part 1 names %s", i+1, dk.Spec.Name, d.Spec.Name)
		}
		loads[i] = load
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	defer l.RUnlock()
	var line []byte
	_, err = s.Bench.EMMeasureBatch(d, loads, samples, 1, func(_ int, m instrument.Measurement) error {
		line = append(line[:0], replyOK...)
		for _, v := range [3]float64{m.PeakDBm, m.PeakHz, m.StdevDBm} {
			line = strconv.AppendFloat(append(line, ' '), v, 'g', -1, 64)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
		return w.Flush()
	})
	return err
}

// cmdVMeasure measures the part's voltage noise through the bench's DSO
// measurers (droop depth or peak-to-peak swing), which reject domains
// without voltage visibility with the same typed error a local bench
// raises. The measurers take a bare program, so a phased part is
// rejected. EM fitness goes through MEASURE.
func (s *Server) cmdVMeasure(r *bufio.Reader, w *bufio.Writer, fields []string) error {
	p, err := readRequestPart(r, len(fields) == 4, "VMEASURE <droop|ptp> <samples> <dsoseed> + part")
	if err != nil {
		return err
	}
	metric := fields[1]
	if metric != "droop" && metric != "ptp" {
		return fmt.Errorf("unknown metric %q", metric)
	}
	samples, err := sampleCount(fields, 2)
	if err != nil {
		return err
	}
	dsoSeed, err := int64Field(fields, 3, "dsoseed")
	if err != nil {
		return err
	}
	d, load, err := s.load(p)
	if err != nil {
		return err
	}
	if len(load.PhaseCycles) > 0 {
		return fmt.Errorf("VMEASURE takes no phase annotations")
	}
	bench := s.Bench.WithSamples(samples)
	// The scope is seeded by the workstation so a remote droop/ptp
	// measurement reuses the exact noise stream a local one would; a domain
	// without one leaves dso nil and the measurer rejects it.
	var dso *instrument.DSO
	if _, newScope := instrument.ScopeFor(d.Spec.VoltageVisibility); newScope != nil {
		dso = newScope(dsoSeed)
	}
	m := bench.DroopMeasurer(d, load.ActiveCores, dso)
	if metric == "ptp" {
		m = bench.PtpMeasurer(d, load.ActiveCores, dso)
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	fitness, domHz, err := m.Measure(load.Seq)
	l.RUnlock()
	if err != nil {
		return err
	}
	return writeLine(w, "%s %g %g", replyOK, fitness, domHz)
}

// cmdSweep measures the Section 5.3 fast sweep's probe loop at every
// listed clock as one core.Bench.SweepBatch campaign (one probe build, one
// primed trace, one band-prefilter pass). Each point is a pure function
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
	points, err := s.Bench.WithSamples(samples).SweepBatch(d, cores, clocks)
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

// cmdVmin runs a repeated V_MIN search of the part's load with the
// workstation's tester seed and reports the worst run plus every per-run
// V_MIN; carrying the seed is what lets a remote campaign reproduce a
// local one bit for bit.
func (s *Server) cmdVmin(r *bufio.Reader, w *bufio.Writer, fields []string) error {
	p, err := readRequestPart(r, len(fields) == 3, "VMIN <seed> <repeats> + part")
	if err != nil {
		return err
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
	d, load, err := s.load(p)
	if err != nil {
		return err
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	tester := vmin.NewTester(d, seed)
	tester.Parallelism = s.Bench.Parallelism
	res, runs, err := tester.Repeat(load, repeats)
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

// cmdShmoo runs the frequency/voltage shmoo of the part's load over the
// clock list in the request, through vmin's batched campaign path (one
// primed trace, snapped-clock dedup, per-column supply ladders).
// Per-point trial noise is keyed by content (seed, load, operating
// point), so neither the target's parallelism nor a fleet's one-cell
// shard layout can change any value.
func (s *Server) cmdShmoo(r *bufio.Reader, w *bufio.Writer, fields []string) error {
	p, err := readRequestPart(r, len(fields) >= 3, "SHMOO <seed> <clockHz>... + part")
	if err != nil {
		return err
	}
	seed, err := int64Field(fields, 1, "seed")
	if err != nil {
		return err
	}
	clocks, err := floatFields(fields[2:], "clock")
	if err != nil {
		return err
	}
	d, load, err := s.load(p)
	if err != nil {
		return err
	}
	l := s.domLock(d.Spec.Name)
	l.RLock()
	tester := vmin.NewTester(d, seed)
	tester.Parallelism = s.Bench.Parallelism
	points, err := tester.Shmoo(load, clocks)
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

// cmdMonitor captures one combined spectrum over several domains' loads
// (Figure 15), one part per domain. Every part is read before any is
// validated; a part count that is missing, unreadable or over
// maxMonitorParts leaves nothing to tell where the request ends, so it
// closes the session as MEASURE's does.
func (s *Server) cmdMonitor(r *bufio.Reader, w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("%w: usage: MONITOR <nparts> + parts", errStreamLost)
	}
	nparts, err := intField(fields, 1, "parts")
	if err == nil && (nparts < 0 || nparts > maxMonitorParts) {
		err = fmt.Errorf("part count %d out of range [1, %d]", nparts, maxMonitorParts)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errStreamLost, err)
	}
	if nparts == 0 {
		return fmt.Errorf("part count 0 out of range [1, %d]", maxMonitorParts)
	}
	parts := make([]part, nparts)
	for i := range parts {
		if parts[i], err = readPart(r); err != nil {
			return err
		}
	}
	loads := make(map[string]platform.Load, len(parts))
	var names []string
	for _, p := range parts {
		d, load, err := s.load(p)
		if err != nil {
			return err
		}
		name := d.Spec.Name
		if _, dup := loads[name]; dup {
			return fmt.Errorf("duplicate MONITOR part for domain %s", name)
		}
		loads[name] = load
		names = append(names, name)
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
	if _, err := s.domain(fields[1]); err != nil {
		return err
	}
	return writeLine(w, "%s %s", replyOK, strconv.Quote(s.Bench.EvalStats()))
}
