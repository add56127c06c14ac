package lab

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/vmin"
)

// The client's protocol verbs. All of them ride the same resilience loop:
// one request (a line, plus the program parts of a load-carrying verb),
// one reply line, retried on transport faults after a reconnect, never
// retried on target ERR replies.

// Hello checks that the daemon speaks this package's protocol version and
// returns the target's platform name and analyzer seed. A daemon that
// answers with any other version is rejected, naming both versions.
func (c *Client) Hello() (platformName string, seed int64, err error) {
	var server int
	err = c.do(command{
		verb: "HELLO",
		line: fmt.Sprintf("HELLO %d", ProtocolVersion),
		parse: func(_ int, payload string) error {
			fields := strings.Fields(payload)
			var err error
			if server, err = intField(fields, 0, "version"); err != nil {
				return err
			}
			if server != ProtocolVersion {
				return nil // refused below, whatever the rest says
			}
			if len(fields) != 3 {
				return fmt.Errorf("malformed HELLO reply %q", payload)
			}
			platformName = fields[1]
			seed, err = int64Field(fields, 2, "seed")
			return err
		},
	})
	if err != nil {
		return "", 0, err
	}
	if server != ProtocolVersion {
		return "", 0, fmt.Errorf("lab: protocol version mismatch: daemon speaks v%d, this client speaks v%d", server, ProtocolVersion)
	}
	return platformName, seed, nil
}

// Info returns the target's platform name and domain inventory.
func (c *Client) Info() (string, []string, error) {
	var name string
	var domains []string
	err := c.do(command{verb: "INFO", line: "INFO", parse: func(_ int, payload string) error {
		fields := strings.Fields(payload)
		if len(fields) < 1 {
			return fmt.Errorf("malformed INFO reply %q", payload)
		}
		name, domains = fields[0], fields[1:]
		return nil
	}})
	return name, domains, err
}

// RemoteCaps is a domain capability record as reported by CAPS. It
// mirrors backend.Caps field for field; lab cannot return that type
// because backend imports lab.
type RemoteCaps struct {
	TotalCores        int
	Arch              isa.Arch
	MaxClockHz        float64
	ClockStepHz       float64
	VoltageVisibility string
	DSOKind           string // "oc-dso", "bench-scope" or "" (no scope)
}

// Caps queries a domain's capability record.
func (c *Client) Caps(domain string) (*RemoteCaps, error) {
	caps := &RemoteCaps{}
	err := c.do(command{
		verb: "CAPS",
		line: "CAPS " + domain,
		parse: func(_ int, payload string) error {
			fields := strings.Fields(payload)
			var err error
			if caps.TotalCores, err = intField(fields, 0, "cores"); err != nil {
				return err
			}
			if len(fields) < 6 {
				return fmt.Errorf("malformed CAPS reply %q", payload)
			}
			if caps.Arch, err = isa.ParseArch(fields[1]); err != nil {
				// A daemon can serve an architecture this process has
				// not loaded a spec for; intern the name so capability
				// queries and placement still work (assembling loads
				// for it fails later with a pointed error).
				if caps.Arch, err = isa.InternArch(fields[1]); err != nil {
					return err
				}
			}
			if caps.MaxClockHz, err = floatField(fields, 2, "max clock"); err != nil {
				return err
			}
			if caps.ClockStepHz, err = floatField(fields, 3, "clock step"); err != nil {
				return err
			}
			caps.VoltageVisibility = fields[4]
			if fields[5] != "-" {
				caps.DSOKind = fields[5]
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return caps, nil
}

// Part is one domain's workload as a request carries it: the program, the
// cores running it and the cores powered (1 ≤ Cores ≤ Powered ≤ the
// domain's total; the client sends the count as given, so a caller
// resolves "every core" first). VMIN and SHMOO each send exactly one,
// MEASURE a chunk of individuals on one domain, MONITOR one per domain,
// so every measurement request is self-contained: the paper's loop (ship
// the source, run it, measure, kill it) is one round trip for a whole
// chunk, and a reconnect has nothing to restore.
type Part struct {
	Domain  string
	Powered int
	Cores   int
	Pool    *isa.Pool
	Seq     []isa.Inst
	Phases  []float64
}

// appendPart appends a part in its wire form to dst: the header
// "<domain> <powered> <cores> <lines> <nphase> [phase...]", then the
// assembly text, formatted into the client's scratch buffer so its lines
// can be counted first.
func (c *Client) appendPart(dst []byte, p Part) []byte {
	c.prog = isa.AppendProgram(c.prog[:0], p.Pool, p.Seq)
	dst = append(dst, p.Domain...)
	dst = strconv.AppendInt(append(dst, ' '), int64(p.Powered), 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(p.Cores), 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(bytes.Count(c.prog, []byte{'\n'})), 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(len(p.Phases)), 10)
	dst = appendFloats(dst, p.Phases)
	return append(append(dst, '\n'), c.prog...)
}

// body renders parts as a request body in the client's reusable request
// buffer; the command that carries it must run before the next body call.
func (c *Client) body(parts ...Part) []byte {
	c.req = c.req[:0]
	for _, p := range parts {
		c.req = c.appendPart(c.req, p)
	}
	return c.req
}

// Measure ships up to MaxMeasureParts parts, all on one domain, to the
// target in one MEASURE and takes each one's fitness and dominant
// frequency under the metric (one core.Bench.MeasureLoads on the daemon's
// bench). dsoSeed seeds the target-side droop/ptp scope; em ignores it.
// The reply streams one line per part, each read under its own I/O
// deadline. With an error it returns the results of the leading parts
// whose reply lines did arrive (the most any attempt read).
func (c *Client) Measure(parts []Part, metric core.Metric, samples int, dsoSeed int64) ([]ga.BatchResult, error) {
	if len(parts) == 0 || len(parts) > MaxMeasureParts {
		return nil, fmt.Errorf("lab: %d parts for one MEASURE, want 1 to %d", len(parts), MaxMeasureParts)
	}
	out := make([]ga.BatchResult, len(parts))
	got := 0
	err := c.do(command{
		verb:    "MEASURE",
		line:    fmt.Sprintf("MEASURE %s %d %d %d", metric, samples, dsoSeed, len(parts)),
		body:    c.body(parts...),
		replies: len(parts),
		parse: func(k int, payload string) error {
			fields := strings.Fields(payload)
			var err error
			if out[k].Fitness, err = floatField(fields, 0, "fitness"); err != nil {
				return err
			}
			if out[k].DominantHz, err = floatField(fields, 1, "dominant Hz"); err != nil {
				return err
			}
			got = max(got, k+1)
			return nil
		},
	})
	if err != nil {
		return out[:got], err
	}
	return out, nil
}

// appendFloats appends " %g" per value: the wire form every float takes,
// which ParseFloat round-trips exactly.
func appendFloats(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = strconv.AppendFloat(append(dst, ' '), v, 'g', -1, 64)
	}
	return dst
}

// Sweep measures the fast sweep's probe loop on cores active cores with
// powered cores powered, at every listed clock, in one SWEEP request
// (Section 5.3). points[i] answers clocks[i] and is nil when the loop
// falls outside the daemon bench's search band at that clock — the
// contract of core.Bench.SweepBatch, whose values the reply carries
// bit-exactly (no clocks, no points).
func (c *Client) Sweep(domain string, powered, cores, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	line := appendFloats(fmt.Appendf(nil, "SWEEP %s %d %d %d", domain, powered, cores, samples), clocks)
	var points []*core.SweepPoint
	err := c.do(command{
		verb: "SWEEP",
		line: string(line),
		parse: func(_ int, payload string) error {
			fields := strings.Fields(payload)
			n, err := intField(fields, 0, "points")
			if err != nil {
				return err
			}
			if n != len(clocks) || len(fields) != 1+4*n {
				return fmt.Errorf("malformed SWEEP reply: %d points for %d clocks, %d fields", n, len(clocks), len(fields))
			}
			points = make([]*core.SweepPoint, n)
			for i := range points {
				f := fields[1+4*i : 5+4*i]
				inBand, err := intField(f, 0, "in-band flag")
				if err != nil {
					return err
				}
				if inBand == 0 {
					continue
				}
				p := &core.SweepPoint{}
				if p.ClockHz, err = floatField(f, 1, "clock"); err != nil {
					return err
				}
				if p.LoopHz, err = floatField(f, 2, "loop"); err != nil {
					return err
				}
				if p.PeakDBm, err = floatField(f, 3, "dBm"); err != nil {
					return err
				}
				points[i] = p
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// Vmin runs a repeated V_MIN campaign on a part with the workstation's
// tester seed and returns the worst run plus every per-run V_MIN (Figure
// 10's distribution data).
func (c *Client) Vmin(p Part, seed int64, repeats int) (*vmin.Result, []float64, error) {
	res := &vmin.Result{}
	var runs []float64
	err := c.do(command{
		verb: "VMIN",
		line: fmt.Sprintf("VMIN %d %d", seed, repeats),
		body: c.body(p),
		parse: func(_ int, payload string) error {
			fields := strings.Fields(payload)
			var err error
			if res.VminV, err = floatField(fields, 0, "vmin"); err != nil {
				return err
			}
			if res.MarginV, err = floatField(fields, 1, "margin"); err != nil {
				return err
			}
			if res.DroopNominalV, err = floatField(fields, 2, "droop"); err != nil {
				return err
			}
			if len(fields) < 5 {
				return fmt.Errorf("malformed VMIN reply %q", payload)
			}
			if res.Outcome, err = vmin.ParseKind(fields[3]); err != nil {
				return err
			}
			n, err := intField(fields, 4, "runs")
			if err != nil {
				return err
			}
			if n != repeats || len(fields) != 5+n {
				return fmt.Errorf("malformed VMIN reply: %d runs for %d repeats, %d fields", n, repeats, len(fields))
			}
			runs, err = floatFields(fields[5:], "run")
			return err
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return res, runs, nil
}

// Shmoo runs a part's frequency/voltage shmoo at the given clock settings
// with the workstation's tester seed.
func (c *Client) Shmoo(p Part, seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	if len(clocks) == 0 {
		return nil, fmt.Errorf("lab: no shmoo clocks")
	}
	line := appendFloats(fmt.Appendf(nil, "SHMOO %d", seed), clocks)
	var points []vmin.ShmooPoint
	err := c.do(command{
		verb: "SHMOO",
		line: string(line),
		body: c.body(p),
		parse: func(_ int, payload string) error {
			fields := strings.Fields(payload)
			n, err := intField(fields, 0, "points")
			if err != nil {
				return err
			}
			if n != len(clocks) || len(fields) != 1+4*n {
				return fmt.Errorf("malformed SHMOO reply: %d points for %d clocks, %d fields", n, len(clocks), len(fields))
			}
			points = make([]vmin.ShmooPoint, n)
			for i := 0; i < n; i++ {
				pt := &points[i]
				if pt.ClockHz, err = floatField(fields, 1+4*i, "clock"); err != nil {
					return err
				}
				if pt.VminV, err = floatField(fields, 2+4*i, "vmin"); err != nil {
					return err
				}
				if pt.MarginV, err = floatField(fields, 3+4*i, "margin"); err != nil {
					return err
				}
				if pt.Outcome, err = vmin.ParseKind(fields[4+4*i]); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// Monitor captures one combined spectrum over several domains' loads
// (Figure 15's one-antenna multi-domain observation). The reply carries
// only (n, startHz, rbwHz, dBm...); the frequency axis is reconstructed
// with instrument.BinCenters, the same expression the analyzer itself
// uses, so the sweep equals a local MonitorAll bit-for-bit.
func (c *Client) Monitor(parts []Part) (*instrument.Sweep, error) {
	if len(parts) == 0 || len(parts) > maxMonitorParts {
		return nil, fmt.Errorf("lab: %d parts for one MONITOR, want 1 to %d", len(parts), maxMonitorParts)
	}
	var sw *instrument.Sweep
	err := c.do(command{
		verb: "MONITOR",
		line: fmt.Sprintf("MONITOR %d", len(parts)),
		body: c.body(parts...),
		parse: func(_ int, payload string) error {
			fields := strings.Fields(payload)
			n, err := intField(fields, 0, "bins")
			if err != nil {
				return err
			}
			startHz, err := floatField(fields, 1, "start Hz")
			if err != nil {
				return err
			}
			rbwHz, err := floatField(fields, 2, "RBW")
			if err != nil {
				return err
			}
			if n < 0 || len(fields) != 3+n {
				return fmt.Errorf("malformed MONITOR reply: %d bins, %d fields", n, len(fields))
			}
			out := &instrument.Sweep{
				Freqs: instrument.BinCenters(startHz, rbwHz, n),
				DBm:   make([]float64, n),
			}
			for i := 0; i < n; i++ {
				if out.DBm[i], err = floatField(fields, 3+i, "dBm"); err != nil {
					return err
				}
			}
			sw = out
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// DomainStats fetches a domain's evaluation counters (the string a local
// core.Bench.EvalStats returns, i.e. the -v output).
func (c *Client) DomainStats(domain string) (string, error) {
	var stats string
	err := c.do(command{
		verb: "STATS",
		line: "STATS " + domain,
		parse: func(_ int, payload string) error {
			s, err := strconv.Unquote(strings.TrimSpace(payload))
			if err != nil {
				return fmt.Errorf("malformed STATS reply: %v", err)
			}
			stats = s
			return nil
		},
	})
	if err != nil {
		return "", err
	}
	return stats, nil
}
