package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/em"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/workload"
)

// SweepPoint is one step of the fast resonance sweep: the CPU clock
// setting, the probe loop frequency it produces, and the received EM
// amplitude at that loop frequency.
type SweepPoint struct {
	ClockHz float64
	LoopHz  float64
	PeakDBm float64
}

// SweepResult is a completed Section 5.3 fast sweep.
type SweepResult struct {
	Points []SweepPoint
	// ResonanceHz is the refined first-order resonance estimate: the
	// power-weighted centroid of the strongest normalized points (see
	// FastResonanceSweep).
	ResonanceHz float64
	// PeakLoopHz and PeakDBm are the raw argmax: the loop frequency of the
	// sweep point with the strongest received amplitude.
	PeakLoopHz float64
	PeakDBm    float64
}

// SweepClockSteps returns the clock grid FastResonanceSweep walks for the
// domain: every DVFS step, descending like the paper (1.2 GHz down to
// 120 MHz). Campaign coordinators shard this exact grid so a distributed
// sweep visits the same operating points a local one does.
func SweepClockSteps(d *platform.Domain) []float64 {
	steps := d.ClockSteps()
	sort.Sort(sort.Reverse(sort.Float64Slice(steps)))
	return steps
}

// buildProbe materializes the fixed two-phase probe loop against the
// domain's instruction pool. SweepBatch reaches it through cachedProbe, so
// it runs once per domain however the grid is split into batches.
func buildProbe(d *platform.Domain) ([]isa.Inst, error) {
	return workload.Probe().Build(d.Spec.Pool())
}

// cachedProbe is buildProbe memoized per domain on the bench's batch
// state. The probe is a pure function of the domain spec, so fleet shard
// handlers issuing many single-point SweepBatch calls against one domain
// build the ISA pool and chain the sequence exactly once.
func (b *Bench) cachedProbe(d *platform.Domain) ([]isa.Inst, error) {
	st := b.batchSt()
	st.probeMu.Lock()
	probe, ok := st.probes[d]
	st.probeMu.Unlock()
	if ok {
		return probe, nil
	}
	probe, err := buildProbe(d)
	if err != nil {
		return nil, err
	}
	st.probeMu.Lock()
	if st.probes == nil {
		st.probes = make(map[*platform.Domain][]isa.Inst)
	}
	st.probes[d] = probe
	st.probeMu.Unlock()
	return probe, nil
}

// FastResonanceSweep implements the Section 5.3 method: run the fixed
// two-phase probe loop on activeCores cores, step the CPU clock across its
// full range (which modulates the loop frequency proportionally), and at
// each step record the EM amplitude near the loop fundamental. The loop
// frequency with the strongest emission is the first-order resonance.
// The whole grid goes through SweepBatch — one bench validation, one probe
// build, one primed trace, one band prefilter pass, arena-backed spectra on
// up to b.Parallelism workers — and results are collected by step index, so
// serial and parallel sweeps are identical — as are sweeps whose points
// were measured on different rigs of a fleet, which is what lets
// internal/fleet shard this grid and reassemble via AssembleSweep.
func (b *Bench) FastResonanceSweep(d *platform.Domain, activeCores int) (*SweepResult, error) {
	// points[i] stays nil when step i's loop frequency falls outside the
	// search band (only in-band loop frequencies can reveal the resonance).
	points, err := b.SweepBatch(d, activeCores, SweepClockSteps(d))
	if err != nil {
		return nil, err
	}
	return AssembleSweep(points)
}

// AssembleSweep merges a sweep's per-point measurements (in clock-grid
// order; nil entries are out-of-band steps) into a SweepResult, applying
// the same argmax and power-weighted centroid refinement a monolithic
// sweep computes. Keeping the merge here — and iterating strictly in grid
// order — is what makes a fleet-sharded sweep bit-identical to a local one
// at any shard layout.
func AssembleSweep(points []*SweepPoint) (*SweepResult, error) {
	res := &SweepResult{PeakDBm: math.Inf(-1)}
	for _, pt := range points {
		if pt == nil {
			continue
		}
		res.Points = append(res.Points, *pt)
		if pt.PeakDBm > res.PeakDBm {
			res.PeakDBm = pt.PeakDBm
			res.PeakLoopHz = pt.LoopHz
		}
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("core: no clock step put the probe loop inside the band")
	}
	// Resonance estimate. Two refinements over a bare argmax:
	//
	//   - The received power carries a known f_clk² scaling, which is
	//     f_loop·f_clk up to the probe's fixed loop length L (f_clk =
	//     L·f_loop). The received power grows as f_loop²·|I_L|², where I_L
	//     is the package-inductor current. Near the first-order resonance
	//     that current is the die voltage over the inductor's reactance,
	//     |I_L| ≈ |Z|·|I_load|/(2π·f_loop·L_pkg), so the f_loop² cancels.
	//     A cycle moving charge Q draws Q·f_clk, so the probe's load
	//     current at f_loop is its fixed charge pattern times f_clk. That
	//     leaves P ∝ f_clk²·|Z(f_loop)|² (times the current-slew filter's
	//     gentle roll-off), and one division by f_loop·f_clk leaves the
	//     impedance shape, whose maximum is the resonance, without the
	//     upward bias of the raw curve. Dividing by the square would tilt
	//     the curve down by a further f_loop².
	//   - The impedance peak can be flat-topped (the paper sees a flat
	//     66-72 MHz response on the A72), so the estimate is the
	//     power-weighted centroid of the points within 3 dB of the
	//     normalized maximum rather than a single noisy winner.
	norm := make([]float64, len(res.Points))
	maxNorm := math.Inf(-1)
	for i, pt := range res.Points {
		fp := pt.LoopHz * pt.ClockHz
		norm[i] = math.Pow(10, pt.PeakDBm/10) / fp
		if norm[i] > maxNorm {
			maxNorm = norm[i]
		}
	}
	var wsum, fsum float64
	for i, pt := range res.Points {
		if norm[i] < maxNorm/2 { // within 3 dB
			continue
		}
		wsum += norm[i]
		fsum += norm[i] * pt.LoopHz
	}
	res.ResonanceHz = fsum / wsum
	return res, nil
}

// MonitorAll runs one workload per domain simultaneously and captures a
// single analyzer sweep of the combined radiation — the Section 6.1
// demonstration that one antenna observes voltage emergencies on several
// voltage domains at once.
func (b *Bench) MonitorAll(loads map[string]platform.Load) (*instrument.Sweep, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("core: no loads to monitor")
	}
	// Iterate domains in sorted-name order: combined power is a float sum
	// over emitters, so a fixed order keeps the result bit-identical from
	// run to run (and equal between the local and remote backends, which
	// serialize the same order over the wire).
	names := make([]string, 0, len(loads))
	for name := range loads {
		names = append(names, name)
	}
	sort.Strings(names)
	// Every emitter's rows stay live until the combine, so the one arena
	// holds all of them.
	st := b.batchSt()
	ar := st.getArena()
	defer st.putArena(ar)
	var emitters []em.Emitter
	for _, name := range names {
		d, err := b.Platform.Domain(name)
		if err != nil {
			return nil, err
		}
		freqs, _, iAmp, _, err := d.SpectraArena(loads[name], b.Dt, b.N, ar)
		if err != nil {
			return nil, err
		}
		emitters = append(emitters, em.Emitter{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath})
	}
	freqs, watts, err := em.CombinedSpectrum(b.Platform.Antenna, emitters)
	if err != nil {
		return nil, err
	}
	return b.Analyzer.Capture(freqs, watts)
}
