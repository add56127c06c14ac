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

// Protocol-v2 client methods. All of them ride the same resilience loop as
// the v1 verbs: single-line request, single-line reply, retried on
// transport faults after a reconnect-and-replay, never retried on target
// ERR replies.

// Hello negotiates the protocol version. It returns the version both
// sides can speak — min(version, server's) — and the target's platform
// name. A v1 daemon predates HELLO and rejects it; callers detect that
// with IsTargetError and fall back to the v1 command subset.
func (c *Client) Hello(version int) (negotiated int, platformName string, err error) {
	err = c.do(command{
		verb: "HELLO",
		line: fmt.Sprintf("HELLO %d", version),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			server, err := intField(fields, 0, "version")
			if err != nil {
				return err
			}
			if len(fields) < 2 {
				return fmt.Errorf("malformed HELLO reply %q", payload)
			}
			negotiated, platformName = server, fields[1]
			if version < negotiated {
				negotiated = version
			}
			return nil
		},
	})
	if err != nil {
		return 0, "", err
	}
	return negotiated, platformName, nil
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

// SweepFull runs the fast resonance sweep remotely with an explicit
// per-point sample count and returns the full result, point list
// included — everything a local core.FastResonanceSweep returns, with
// values that round-trip the wire bit-exactly (%g → ParseFloat).
func (c *Client) SweepFull(domain string, cores, samples int) (*core.SweepResult, error) {
	res := &core.SweepResult{}
	err := c.do(command{
		verb: "SWEEPFULL",
		line: fmt.Sprintf("SWEEPFULL %s %d %d", domain, cores, samples),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			var err error
			if res.ResonanceHz, err = floatField(fields, 0, "resonance"); err != nil {
				return err
			}
			if res.PeakLoopHz, err = floatField(fields, 1, "peak loop"); err != nil {
				return err
			}
			if res.PeakDBm, err = floatField(fields, 2, "peak dBm"); err != nil {
				return err
			}
			n, err := intField(fields, 3, "points")
			if err != nil {
				return err
			}
			if n < 0 || len(fields) != 4+3*n {
				return fmt.Errorf("malformed SWEEPFULL reply: %d points, %d fields", n, len(fields))
			}
			res.Points = make([]core.SweepPoint, n)
			for i := 0; i < n; i++ {
				p := &res.Points[i]
				if p.ClockHz, err = floatField(fields, 4+3*i, "clock"); err != nil {
					return err
				}
				if p.LoopHz, err = floatField(fields, 5+3*i, "loop"); err != nil {
					return err
				}
				if p.PeakDBm, err = floatField(fields, 6+3*i, "dBm"); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SweepAt measures one fast-sweep point at an explicit clock setting (the
// protocol-v3 verb behind fleet-sharded sweeps). A nil point with a nil
// error means the probe loop falls outside the daemon bench's search band
// at that clock — the same contract as core.SweepPointAt.
func (c *Client) SweepAt(domain string, cores, samples int, clockHz float64) (*core.SweepPoint, error) {
	var pt *core.SweepPoint
	err := c.do(command{
		verb: "SWEEPAT",
		line: fmt.Sprintf("SWEEPAT %s %d %d %g", domain, cores, samples, clockHz),
		parse: func(payload string) error {
			fields := strings.Fields(payload)
			inBand, err := intField(fields, 0, "in-band flag")
			if err != nil {
				return err
			}
			if inBand == 0 {
				pt = nil
				return nil
			}
			p := &core.SweepPoint{}
			if p.ClockHz, err = floatField(fields, 1, "clock"); err != nil {
				return err
			}
			if p.LoopHz, err = floatField(fields, 2, "loop"); err != nil {
				return err
			}
			if p.PeakDBm, err = floatField(fields, 3, "dBm"); err != nil {
				return err
			}
			pt = p
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return pt, nil
}

// RemoteVminFull is a full V_MIN campaign result: the worst run plus every
// per-run V_MIN (Figure 10's distribution data).
type RemoteVminFull struct {
	VminV         float64
	MarginV       float64
	DroopNominalV float64
	Outcome       vmin.FailureKind
	Runs          []float64
}

// VminFull runs a V_MIN campaign on the loaded workload with the
// workstation's tester seed.
func (c *Client) VminFull(seed int64, repeats int) (*RemoteVminFull, error) {
	out := &RemoteVminFull{}
	err := c.do(command{
		verb: "VMINFULL",
		line: fmt.Sprintf("VMINFULL %d %d", seed, repeats),
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
				return fmt.Errorf("malformed VMINFULL reply %q", payload)
			}
			if out.Outcome, err = vmin.ParseKind(fields[3]); err != nil {
				return err
			}
			n, err := intField(fields, 4, "runs")
			if err != nil {
				return err
			}
			if n < 0 || len(fields) != 5+n {
				return fmt.Errorf("malformed VMINFULL reply: %d runs, %d fields", n, len(fields))
			}
			out.Runs = make([]float64, n)
			for i := 0; i < n; i++ {
				if out.Runs[i], err = floatField(fields, 5+i, "run"); err != nil {
					return err
				}
			}
			return nil
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
	for _, hz := range clocks {
		fmt.Fprintf(&line, " %g", hz)
	}
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

// VMeasure measures the running workload under the given metric ("em",
// "droop" or "ptp") and returns the GA observable: fitness and dominant
// frequency. dsoSeed fixes the target-side scope noise stream for the
// droop/ptp metrics (ignored for em).
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
		for _, ph := range part.Phases {
			fmt.Fprintf(&body, " %g", ph)
		}
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

// DomainStats fetches a domain's evaluation-cache counters (the string a
// local Domain.EvalStats returns, i.e. the -v output).
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
