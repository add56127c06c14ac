package lab

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/vmin"
)

// The client's protocol verbs. All of them ride the same resilience loop:
// single-line request, single-line reply, retried on transport faults
// after a reconnect-and-replay, never retried on target ERR replies.

// Hello checks that the daemon speaks this package's protocol version and
// returns the target's platform name. A daemon that answers with any other
// version is rejected, naming both versions.
func (c *Client) Hello() (platformName string, err error) {
	var server int
	err = c.do(command{
		verb: "HELLO",
		line: fmt.Sprintf("HELLO %d", ProtocolVersion),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			var err error
			if server, err = intField(fields, 0, "version"); err != nil {
				return err
			}
			if len(fields) < 2 {
				return fmt.Errorf("malformed HELLO reply %q", payload)
			}
			platformName = fields[1]
			return nil
		},
	})
	if err != nil {
		return "", err
	}
	if server != ProtocolVersion {
		return "", fmt.Errorf("lab: protocol version mismatch: daemon speaks v%d, this client speaks v%d", server, ProtocolVersion)
	}
	return platformName, nil
}

// Info returns the target's platform name and domain inventory.
func (c *Client) Info() (string, []string, error) {
	var name string
	var domains []string
	err := c.do(command{verb: "INFO", line: "INFO", parse: func(payload string) error {
		fields := strings.Fields(payload)
		if len(fields) < 1 {
			return fmt.Errorf("malformed INFO reply %q", payload)
		}
		name, domains = fields[0], fields[1:]
		return nil
	}})
	return name, domains, err
}

// RemoteCaps is a domain capability record as reported by CAPS.
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
		parse: func(payload string) error {
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

// RemoteState is a domain's current operating point as reported by STATE.
type RemoteState struct {
	ClockHz      float64
	SupplyV      float64
	PoweredCores int
}

// State queries a domain's current setpoints.
func (c *Client) State(domain string) (*RemoteState, error) {
	st := &RemoteState{}
	err := c.do(command{
		verb: "STATE",
		line: "STATE " + domain,
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			var err error
			if st.ClockHz, err = floatField(fields, 0, "clock"); err != nil {
				return err
			}
			if st.SupplyV, err = floatField(fields, 1, "supply"); err != nil {
				return err
			}
			if st.PoweredCores, err = intField(fields, 2, "powered"); err != nil {
				return err
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Load ships an individual's source to the target, which assembles it.
func (c *Client) Load(domain string, cores int, pool *isa.Pool, seq []isa.Inst) error {
	text := isa.FormatProgram(pool, seq)
	lines := strings.Count(text, "\n")
	return c.do(command{
		verb: "LOAD",
		line: fmt.Sprintf("LOAD %s %d %d", domain, cores, lines),
		body: text,
		record: func(st *sessionState) {
			st.load = &loadState{domain: domain, cores: cores, text: text, lines: lines}
			st.run = false
		},
	})
}

// Run starts the loaded workload on the target.
func (c *Client) Run() error {
	return c.do(command{verb: "RUN", line: "RUN",
		record: func(st *sessionState) { st.run = true }})
}

// Stop terminates the running workload.
func (c *Client) Stop() error {
	return c.do(command{verb: "STOP", line: "STOP",
		record: func(st *sessionState) { st.run = false }})
}

// Cycle runs the paper's per-individual loop on this session: load the
// program, run it, take the caller's measurement, stop it. A failed
// measurement still stops the workload before its error is returned.
func (c *Client) Cycle(domain string, cores int, pool *isa.Pool, seq []isa.Inst, measure func() error) error {
	if err := c.Load(domain, cores, pool, seq); err != nil {
		return err
	}
	if err := c.Run(); err != nil {
		return err
	}
	if err := measure(); err != nil {
		_ = c.Stop()
		return err
	}
	return c.Stop()
}

// RemoteMeasurement is the target's analyzer reading.
type RemoteMeasurement struct {
	PeakDBm  float64
	PeakHz   float64
	StdevDBm float64
}

// Measure asks the target bench for an averaged EM peak measurement.
func (c *Client) Measure(samples int) (*RemoteMeasurement, error) {
	m := &RemoteMeasurement{}
	err := c.do(command{
		verb: "MEASURE",
		line: fmt.Sprintf("MEASURE %d", samples),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			var err error
			if m.PeakDBm, err = floatField(fields, 0, "peak dBm"); err != nil {
				return err
			}
			if m.PeakHz, err = floatField(fields, 1, "peak Hz"); err != nil {
				return err
			}
			if m.StdevDBm, err = floatField(fields, 2, "stdev"); err != nil {
				return err
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// VMeasure measures the running workload's voltage noise under the given
// metric ("droop" or "ptp") and returns the GA observable: fitness and
// dominant frequency. dsoSeed fixes the target-side scope noise stream.
func (c *Client) VMeasure(metric string, samples int, dsoSeed int64) (fitness, domHz float64, err error) {
	err = c.do(command{
		verb: "VMEASURE",
		line: fmt.Sprintf("VMEASURE %s %d %d", metric, samples, dsoSeed),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			var err error
			if fitness, err = floatField(fields, 0, "fitness"); err != nil {
				return err
			}
			if domHz, err = floatField(fields, 1, "dominant Hz"); err != nil {
				return err
			}
			return nil
		},
	})
	if err != nil {
		return 0, 0, err
	}
	return fitness, domHz, nil
}

// writeFloats appends " %g" per value: the wire form every float takes,
// which ParseFloat round-trips exactly.
func writeFloats(b *strings.Builder, vs []float64) {
	for _, v := range vs {
		fmt.Fprintf(b, " %g", v)
	}
}

// Sweep measures the fast sweep's probe loop at every listed clock in one
// SWEEP request (Section 5.3). points[i] answers clocks[i] and is nil when
// the loop falls outside the daemon bench's search band at that clock —
// the contract of core.Bench.SweepBatch, whose values the reply carries
// bit-exactly.
func (c *Client) Sweep(domain string, cores, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	if len(clocks) == 0 {
		return nil, fmt.Errorf("lab: no sweep clocks")
	}
	var line strings.Builder
	fmt.Fprintf(&line, "SWEEP %s %d %d", domain, cores, samples)
	writeFloats(&line, clocks)
	var points []*core.SweepPoint
	err := c.do(command{
		verb: "SWEEP",
		line: line.String(),
		parse: func(payload string) error {
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

// RemoteVmin is a repeated V_MIN search result: the worst run plus every
// per-run V_MIN (Figure 10's distribution data).
type RemoteVmin struct {
	VminV         float64
	MarginV       float64
	DroopNominalV float64
	Outcome       vmin.FailureKind
	Runs          []float64
}

// Vmin runs a V_MIN campaign on the loaded workload with the
// workstation's tester seed.
func (c *Client) Vmin(seed int64, repeats int) (*RemoteVmin, error) {
	out := &RemoteVmin{}
	err := c.do(command{
		verb: "VMIN",
		line: fmt.Sprintf("VMIN %d %d", seed, repeats),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			var err error
			if out.VminV, err = floatField(fields, 0, "vmin"); err != nil {
				return err
			}
			if out.MarginV, err = floatField(fields, 1, "margin"); err != nil {
				return err
			}
			if out.DroopNominalV, err = floatField(fields, 2, "droop"); err != nil {
				return err
			}
			if len(fields) < 5 {
				return fmt.Errorf("malformed VMIN reply %q", payload)
			}
			if out.Outcome, err = vmin.ParseKind(fields[3]); err != nil {
				return err
			}
			n, err := intField(fields, 4, "runs")
			if err != nil {
				return err
			}
			if n < 0 || len(fields) != 5+n {
				return fmt.Errorf("malformed VMIN reply: %d runs, %d fields", n, len(fields))
			}
			out.Runs, err = floatFields(fields[5:], "run")
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Shmoo runs the loaded workload's frequency/voltage shmoo at the given
// clock settings with the workstation's tester seed.
func (c *Client) Shmoo(seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	if len(clocks) == 0 {
		return nil, fmt.Errorf("lab: no shmoo clocks")
	}
	var line strings.Builder
	fmt.Fprintf(&line, "SHMOO %d", seed)
	writeFloats(&line, clocks)
	var points []vmin.ShmooPoint
	err := c.do(command{
		verb: "SHMOO",
		line: line.String(),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			n, err := intField(fields, 0, "points")
			if err != nil {
				return err
			}
			if n < 0 || len(fields) != 1+4*n {
				return fmt.Errorf("malformed SHMOO reply: %d points, %d fields", n, len(fields))
			}
			points = make([]vmin.ShmooPoint, n)
			for i := 0; i < n; i++ {
				p := &points[i]
				if p.ClockHz, err = floatField(fields, 1+4*i, "clock"); err != nil {
					return err
				}
				if p.VminV, err = floatField(fields, 2+4*i, "vmin"); err != nil {
					return err
				}
				if p.MarginV, err = floatField(fields, 3+4*i, "margin"); err != nil {
					return err
				}
				if p.Outcome, err = vmin.ParseKind(fields[4+4*i]); err != nil {
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

// MonitorPart is one domain's workload in a multi-domain Monitor capture.
type MonitorPart struct {
	Domain string
	Cores  int
	Pool   *isa.Pool
	Seq    []isa.Inst
	Phases []float64
}

// Monitor captures one combined spectrum over several domains' loads
// (Figure 15's one-antenna multi-domain observation). The reply carries
// only (n, startHz, rbwHz, dBm...); the frequency axis is reconstructed
// with instrument.BinCenters, the same expression the analyzer itself
// uses, so the sweep equals a local MonitorAll bit-for-bit.
func (c *Client) Monitor(parts []MonitorPart) (*instrument.Sweep, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("lab: no monitor parts")
	}
	var body strings.Builder
	for _, part := range parts {
		text := isa.FormatProgram(part.Pool, part.Seq)
		lines := strings.Count(text, "\n")
		fmt.Fprintf(&body, "%s %d %d %d", part.Domain, part.Cores, lines, len(part.Phases))
		writeFloats(&body, part.Phases)
		body.WriteByte('\n')
		body.WriteString(text)
	}
	var sw *instrument.Sweep
	err := c.do(command{
		verb: "MONITOR",
		line: fmt.Sprintf("MONITOR %d", len(parts)),
		body: body.String(),
		parse: func(payload string) error {
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

// SetClock adjusts the target's DVFS point.
func (c *Client) SetClock(domain string, hz float64) error {
	return c.do(command{
		verb:   "SETCLOCK",
		line:   fmt.Sprintf("SETCLOCK %s %g", domain, hz),
		record: func(st *sessionState) { st.set.update(func() { st.set.clocks[domain] = hz }) },
	})
}

// SetVolts adjusts the target's supply setpoint.
func (c *Client) SetVolts(domain string, v float64) error {
	return c.do(command{
		verb:   "SETVOLTS",
		line:   fmt.Sprintf("SETVOLTS %s %g", domain, v),
		record: func(st *sessionState) { st.set.update(func() { st.set.volts[domain] = v }) },
	})
}

// SetCores power-gates cores on the target.
func (c *Client) SetCores(domain string, n int) error {
	return c.do(command{
		verb:   "SETCORES",
		line:   fmt.Sprintf("SETCORES %s %d", domain, n),
		record: func(st *sessionState) { st.set.update(func() { st.set.cores[domain] = n }) },
	})
}

// Reset restores a domain to nominal state.
func (c *Client) Reset(domain string) error {
	return c.do(command{
		verb: "RESET",
		line: "RESET " + domain,
		record: func(st *sessionState) {
			st.set.update(func() {
				delete(st.set.clocks, domain)
				delete(st.set.volts, domain)
				delete(st.set.cores, domain)
			})
		},
	})
}

// DomainStats fetches a domain's evaluation counters (the string a local
// core.Bench.EvalStats returns, i.e. the -v output).
func (c *Client) DomainStats(domain string) (string, error) {
	var stats string
	err := c.do(command{
		verb: "STATS",
		line: "STATS " + domain,
		parse: func(payload string) error {
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
