// Package power converts micro-architectural activity into electrical load:
// it maps per-cycle switching charge (from internal/uarch) to a current
// waveform at a given clock frequency, resamples it onto the circuit
// solver's time grid, and composes multi-core cluster loads.
//
// Current model: a cycle that moves charge Q at clock frequency f draws a
// mean current of Q·f during that cycle. Lowering the clock both stretches
// the loop period (lowering the loop frequency) and reduces the current
// amplitude — exactly the coupled modulation the paper's fast resonance
// sweep (Section 5.3) exploits.
package power

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/uarch"
)

// ClusterLoad describes a homogeneous CPU cluster running one stress loop
// per active core, all cores clocked together.
type ClusterLoad struct {
	Core    uarch.Config
	Seq     []isa.Inst
	ClockHz float64
	// ActiveCores is how many cores run the loop. Idle (but powered)
	// cores draw only base charge; see IdleCurrent.
	ActiveCores int
	// PhaseCycles optionally staggers each active core by a cycle offset.
	// Empty means all cores aligned — the worst case a virus targets.
	PhaseCycles []float64
}

// maxPhaseCycles bounds a core's phase offset. Every offset extends the
// simulated steady window by that many cycles, and the waveform repeats
// every loop period, so a larger offset only costs memory.
const maxPhaseCycles = 1 << 20

// Validate reports the first problem with the load description.
func (cl ClusterLoad) Validate() error {
	if err := cl.Core.Validate(); err != nil {
		return err
	}
	switch {
	case len(cl.Seq) == 0:
		return fmt.Errorf("power: empty stress loop")
	case cl.ClockHz <= 0 || math.IsNaN(cl.ClockHz) || math.IsInf(cl.ClockHz, 0):
		return fmt.Errorf("power: invalid clock %v", cl.ClockHz)
	case cl.ActiveCores < 1:
		return fmt.Errorf("power: %d active cores", cl.ActiveCores)
	case len(cl.PhaseCycles) != 0 && len(cl.PhaseCycles) != cl.ActiveCores:
		return fmt.Errorf("power: %d phase offsets for %d cores", len(cl.PhaseCycles), cl.ActiveCores)
	}
	for _, p := range cl.PhaseCycles {
		// Negated so NaN is rejected: the offset indexes the steady window.
		if !(p >= 0 && p <= maxPhaseCycles) {
			return fmt.Errorf("power: phase offset %v outside [0, %d] cycles", p, maxPhaseCycles)
		}
	}
	return nil
}

// SteadySim is the sized simulation behind one evaluation of a load on a
// dt×n sample window: the micro-architectural result FillFromSim resamples,
// the grid it was sized for, and the period-snap scale. Batched campaign
// paths obtain one per operating point (optionally served from a primed
// uarch.Trace) and share it between the loop-frequency prefilter and the
// waveform resample, so no point pays the sizing twice.
type SteadySim struct {
	// Res is the micro-architectural result of the loop on that grid.
	Res *uarch.Result
	// Dt and N are the sampling grid the simulation was sized for.
	Dt float64
	N  int

	scale float64 // period-snap time-base warp (see steadySim)
}

// maxPhase returns the longest phase offset, which extends the needed
// steady window.
func (cl ClusterLoad) maxPhase() float64 {
	m := 0.0
	for _, p := range cl.PhaseCycles {
		if p > m {
			m = p
		}
	}
	return m
}

// PrimeSteadyCycles returns the steady-window demand (in cycles) an
// evaluation of this load on a dt×n grid may make of the simulator,
// including the 5% period-snap headroom. A campaign primes uarch.PrimeTrace
// with this value at its largest clock; every smaller clock's demand is a
// covered prefix.
func (cl ClusterLoad) PrimeSteadyCycles(dt float64, n int) int {
	maxPhase := cl.maxPhase()
	window := float64(n) * dt * cl.ClockHz
	minSteady := int(math.Ceil(window+maxPhase)) + 8
	upfront := int(math.Ceil(window*1.05+maxPhase)) + 2
	if upfront > minSteady {
		return upfront
	}
	return minSteady
}

// steadySim sizes the simulation for a dt×n sample window. The sizing is
// two-stage: the snap decision reads the loop period at the minimal
// window, and the snapped window may then need a slightly longer trace (the
// warp is bounded at 5%). Both stages are served from one trace covering
// PrimeSteadyCycles: the passed tr when it covers that demand (a campaign
// primed at its largest clock), otherwise a call-local trace primed here.
// Stage 1 reads only the loop period (no Result materialized) and stage 2
// synthesizes the one Result the caller keeps, bit-identical to running
// the simulator at each stage's own window (the prefix lemma; see
// uarch.Trace).
func (cl ClusterLoad) steadySim(dt float64, n int, tr *uarch.Trace) (SteadySim, error) {
	maxPhase := cl.maxPhase()
	window := float64(n) * dt * cl.ClockHz // cycles covered by the sample window
	minSteady := int(math.Ceil(window+maxPhase)) + 8

	if prime := cl.PrimeSteadyCycles(dt, n); !tr.Covers(prime) {
		local, err := uarch.PrimeTrace(cl.Core, cl.Seq, prime)
		if err != nil {
			return SteadySim{}, uarch.SteadyStateError(minSteady)
		}
		tr = local
	}
	loopCycles, err := tr.LoopCyclesAt(minSteady)
	if err != nil {
		return SteadySim{}, err
	}
	// Period snapping: warp the time base slightly so an integer number of
	// loop periods fills the window exactly. Downstream FFT analyses then
	// see a truly periodic signal with no wrap discontinuity (no spectral
	// leakage splashing into the PDN resonance). The warp is bounded at
	// 5%; if the window holds less than ~one period, sample unwarped.
	scale := 1.0
	if loopCycles > 0 {
		k := math.Round(window / loopCycles)
		if k >= 1 {
			s := k * loopCycles / window
			if math.Abs(s-1) <= 0.05 {
				scale = s
			}
		}
	}
	// Stage 2 widens the window only when the snapped demand exceeds the
	// stage-1 one. Both are within PrimeSteadyCycles (scale <= 1.05), so the
	// trace covers the synthesis.
	size := max(minSteady, int(math.Ceil(window*scale+maxPhase))+2)
	res, err := tr.Synth(size)
	if err != nil {
		return SteadySim{}, err
	}
	return SteadySim{Res: res, Dt: dt, N: n, scale: scale}, nil
}

// SteadySimTrace sizes the simulation for a dt×n sample window, drawing
// from tr when it covers the demand (see PrimeSteadyCycles) and priming a
// call-local trace otherwise — including for a nil trace, so campaign
// paths thread an optional priming unconditionally.
// The returned sim feeds FillFromSim and LoopFrequency.
func (cl ClusterLoad) SteadySimTrace(dt float64, n int, tr *uarch.Trace) (SteadySim, error) {
	if err := cl.Validate(); err != nil {
		return SteadySim{}, err
	}
	if dt <= 0 || n < 1 {
		return SteadySim{}, fmt.Errorf("power: invalid sampling dt=%v n=%d", dt, n)
	}
	return cl.steadySim(dt, n, tr)
}

// FillFromSim resamples a prepared simulation into out (len sim.N). The
// shared body is what keeps batched campaign points bit-identical to
// per-point evaluation.
func (cl ClusterLoad) FillFromSim(sim SteadySim, out []float64) error {
	if sim.Res == nil {
		return fmt.Errorf("power: empty steady sim")
	}
	if len(out) != sim.N {
		return fmt.Errorf("power: waveform buffer length %d, want %d", len(out), sim.N)
	}
	cl.fillFromSim(sim, out)
	return nil
}

// fillFromSim resamples the simulated charge trace into out. The aligned
// path overwrites every element; the phased path accumulates, so it clears
// first.
func (cl ClusterLoad) fillFromSim(sim SteadySim, out []float64) {
	dt, n, scale := sim.Dt, sim.N, sim.scale
	steady := sim.Res.SteadyCharge()
	if len(cl.PhaseCycles) == 0 {
		// All cores aligned: every core samples the same trace index, so
		// resample once and add the per-core value ActiveCores times (the
		// repeated add reproduces the per-core accumulation bit-for-bit).
		for i := 0; i < n; i++ {
			cyc := float64(i) * dt * scale * cl.ClockHz
			idx := int(cyc)
			if idx >= len(steady) {
				idx = len(steady) - 1
			}
			v := steady[idx] * cl.ClockHz
			acc := 0.0
			for core := 0; core < cl.ActiveCores; core++ {
				acc += v
			}
			out[i] = acc
		}
	} else {
		clear(out)
		for core := 0; core < cl.ActiveCores; core++ {
			phase := cl.PhaseCycles[core]
			for i := 0; i < n; i++ {
				cyc := float64(i)*dt*scale*cl.ClockHz + phase
				idx := int(cyc)
				if idx >= len(steady) {
					idx = len(steady) - 1
				}
				out[i] += steady[idx] * cl.ClockHz
			}
		}
	}
	applySlew(out, dt, cl.Core.CurrentSlewTau)
}

// LoopHz returns the loop fundamental frequency SteadySimTrace's
// simulation on the same sampling grid would report, without resampling
// the waveform. It shares that exact sizing, so the underlying uarch
// result is identical. It still pays that simulation; a campaign that
// band-filters many clocks sizes its points from one primed trace instead
// (SteadySimTrace).
func (cl ClusterLoad) LoopHz(dt float64, n int) (float64, *uarch.Result, error) {
	if err := cl.Validate(); err != nil {
		return 0, nil, err
	}
	if dt <= 0 || n < 1 {
		return 0, nil, fmt.Errorf("power: invalid sampling dt=%v n=%d", dt, n)
	}
	sim, err := cl.steadySim(dt, n, nil)
	if err != nil {
		return 0, nil, err
	}
	return LoopFrequency(sim.Res, cl.ClockHz), sim.Res, nil
}

// applySlew low-passes a (periodic) current waveform in place with the
// core's current-ramp time constant. The filter is warmed by one silent
// pass over the buffer so the periodic waveform has no startup transient.
func applySlew(wave []float64, dt, tau float64) {
	if tau <= 0 || len(wave) == 0 {
		return
	}
	alpha := 1 - math.Exp(-dt/tau)
	// Warm the filter over the tail of the periodic buffer: the arbitrary
	// starting state decays by exp(-dt/tau) per sample, so 45 time
	// constants bury it far below double-precision rounding and the state
	// entering sample 0 is the converged end-of-period state. Longer time
	// constants warm over the whole buffer, as before.
	k := len(wave)
	if need := 45 * tau / dt; need < float64(k) {
		k = int(need) + 1
	}
	acc := wave[len(wave)-k]
	for _, v := range wave[len(wave)-k:] {
		acc += alpha * (v - acc)
	}
	for i, v := range wave {
		acc += alpha * (v - acc)
		wave[i] = acc
	}
}

// IdleCurrent returns the current drawn by one powered-but-idle core at the
// given clock: the base charge plus all issue slots idle.
func IdleCurrent(cfg uarch.Config, clockHz float64) float64 {
	return (cfg.BaseCharge + float64(cfg.IssueWidth)*cfg.IdleSlotCharge) * clockHz
}

// LoopFrequency returns the stress loop's fundamental frequency, the
// inverse of the steady-state loop period (paper Table 2's "loop freq").
func LoopFrequency(res *uarch.Result, clockHz float64) float64 {
	if res.LoopCycles <= 0 {
		return 0
	}
	return clockHz / res.LoopCycles
}
