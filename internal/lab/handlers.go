package lab

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
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
	d, err := s.Bench.Platform.Domain(fields[1])
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

// part is one domain's workload as a request carries it: a header
// "<domain> <powered> <cores> <lines> <nphase> [phase...]" and <lines>
// program lines. VMIN and SHMOO are each followed by exactly one part,
// MEASURE and MONITOR by the count their request line gives.
type part struct {
	domain  string
	powered int
	cores   int
	phases  []float64
	body    string
	err     error // first bad header field, reported once the body is read
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
	lines, err := intField(hf, 3, "lines")
	if err == nil && (lines < 1 || lines > maxProgramLines) {
		err = fmt.Errorf("line count %d out of range", lines)
	}
	if err != nil {
		return part{}, fmt.Errorf("%w: part header %q: %v", errStreamLost, hdr, err)
	}
	p := part{domain: hf[0]}
	nphase, err := intField(hf, 4, "phases")
	switch {
	case err != nil:
		p.err = err
	case nphase < 0 || nphase > 64 || len(hf) != 5+nphase:
		p.err = fmt.Errorf("phase count mismatch in part header %q", hdr)
	default:
		p.powered, p.err = intField(hf, 1, "powered")
		if p.err == nil {
			p.cores, p.err = intField(hf, 2, "cores")
		}
		if p.err == nil {
			p.phases, p.err = floatFields(hf[5:], "phase")
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

// view resolves a request's domain at its powered-core count and checks
// its active cores against it: 1 ≤ active ≤ powered ≤ the domain's total.
func (s *Server) view(name string, powered, active int) (*platform.Domain, error) {
	d, err := s.Bench.Platform.Domain(name)
	if err != nil {
		return nil, err
	}
	if d, err = d.Gated(powered); err != nil {
		return nil, err
	}
	if active < 1 || active > powered {
		return nil, fmt.Errorf("core count %d out of range [1, %d]", active, powered)
	}
	return d, nil
}

// load resolves a part on the daemon's platform: a known domain at a valid
// powered-core count, an active-core count within it and a non-empty
// program in the domain's instruction pool.
func (s *Server) load(p part) (*platform.Domain, platform.Load, error) {
	if p.err != nil {
		return nil, platform.Load{}, p.err
	}
	d, err := s.view(p.domain, p.powered, p.cores)
	if err != nil {
		return nil, platform.Load{}, err
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

// cmdMeasure measures every part under the request's metric with one
// core.Bench.MeasureLoads call — the GA's fitness path for em, droop and
// ptp alike — and streams one "OK <fitness> <domHz>" line per part as the
// batch reaches it. dsoseed seeds the droop/ptp scope (em ignores it), so
// a remote reading reuses the noise stream a local one would. Every part
// must name the same domain and powered cores; a rejected part is named in
// the ERR.
func (s *Server) cmdMeasure(r *bufio.Reader, w *bufio.Writer, fields []string) error {
	if len(fields) != 5 {
		return fmt.Errorf("%w: usage: MEASURE <metric> <samples> <dsoseed> <nparts> + parts", errStreamLost)
	}
	nparts, err := intField(fields, 4, "parts")
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
	metric, err := core.ParseMetric(fields[1])
	if err != nil {
		return err
	}
	samples, err := sampleCount(fields, 2)
	if err != nil {
		return err
	}
	dsoSeed, err := int64Field(fields, 3, "dsoseed")
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
			return fmt.Errorf("part %d: %s with %d powered, but part 1 names %s with %d powered",
				i+1, dk.Spec.Name, dk.PoweredCores(), d.Spec.Name, d.PoweredCores())
		}
		loads[i] = load
	}
	var line []byte
	_, err = s.Bench.WithSamples(samples).MeasureLoads(d, metric, dsoSeed, loads, 1, func(_ int, res ga.BatchResult) error {
		line = appendFloats(append(line[:0], replyOK...), []float64{res.Fitness, res.DominantHz})
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
		return w.Flush()
	})
	return err
}

// cmdSweep measures the Section 5.3 fast sweep's probe loop at every
// listed clock as one core.Bench.SweepBatch campaign (one probe build, one
// primed trace, one band-prefilter pass). Each point is a pure function
// of its snapped clock, so a whole grid in one request, one clock per
// request, or any fleet shard layout agree bit for bit. Each point is a
// fixed four-field group; an out-of-band step is "0 0 0 0". No clocks is
// no points, as on a local bench.
func (s *Server) cmdSweep(w *bufio.Writer, fields []string) error {
	if len(fields) < 5 {
		return fmt.Errorf("usage: SWEEP <domain> <powered> <cores> <samples> [clockHz...]")
	}
	powered, err := intField(fields, 2, "powered")
	if err != nil {
		return err
	}
	cores, err := intField(fields, 3, "cores")
	if err != nil {
		return err
	}
	d, err := s.view(fields[1], powered, cores)
	if err != nil {
		return err
	}
	samples, err := sampleCount(fields, 4)
	if err != nil {
		return err
	}
	clocks, err := floatFields(fields[5:], "clock")
	if err != nil {
		return err
	}
	points, err := s.Bench.WithSamples(samples).SweepBatch(d, cores, clocks)
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
	tester := vmin.NewTester(d, seed)
	tester.Parallelism = s.Bench.Parallelism
	res, runs, err := tester.Repeat(load, repeats)
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
	tester := vmin.NewTester(d, seed)
	tester.Parallelism = s.Bench.Parallelism
	points, err := tester.Shmoo(load, clocks)
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
// (Figure 15), one part per domain, each with every core powered (the
// capture the bench's MonitorAll takes). Every part is read before any is
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
	for _, p := range parts {
		d, load, err := s.load(p)
		if err != nil {
			return err
		}
		name := d.Spec.Name
		if d.PoweredCores() != d.Spec.TotalCores {
			return fmt.Errorf("MONITOR part for domain %s powers %d of %d cores; it captures with every core powered",
				name, d.PoweredCores(), d.Spec.TotalCores)
		}
		if _, dup := loads[name]; dup {
			return fmt.Errorf("duplicate MONITOR part for domain %s", name)
		}
		loads[name] = load
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

// cmdStats ships a domain's evaluation counters (the -v output, rendered by
// core.Bench.EvalStats exactly as a local backend renders them) as one
// quoted string.
func (s *Server) cmdStats(w *bufio.Writer, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("usage: STATS <domain>")
	}
	if _, err := s.Bench.Platform.Domain(fields[1]); err != nil {
		return err
	}
	return writeLine(w, "%s %s", replyOK, strconv.Quote(s.Bench.EvalStats()))
}
