package platform

// Batched operating-point evaluation.
//
// A sweep, shmoo or V_MIN campaign holds the workload fixed and walks a
// grid of (clock, supply) operating points. Most of the per-point cost is
// clock-invariant (the cycle-domain simulation) or supply-invariant (the
// resampled base waveform, the PDN transfer set), so the campaign paths
// here hoist each invariant to the widest scope it holds at:
//
//   - PrimeTraceAt simulates the workload once, sized for the campaign's
//     largest clock; every point's sizing then synthesizes from the primed
//     history (uarch.Trace), bit-identically to per-point simulation.
//   - PreparePointAt sizes one point and carries the simulation, so the
//     loop-frequency band prefilter and the spectra evaluation of a sweep
//     point share it instead of sizing twice.
//   - LadderAt freezes one (load, clock) column of a V_MIN campaign:
//     the supply-invariant base waveform and transfer set are computed
//     once and each supply step pays only the scale + FFT remainder,
//     memoized per supply (the response is a pure function of the
//     operating point, so repeated trials of a Repeat campaign dedup).
//     PredictMinV predicts any rung's minimum die voltage from the
//     nominal rung (the network is linear in the supply) with a rounding
//     bound, so a V_MIN descent solves only the steps it cannot decide.
//     SteadyVDie is a one-rung ladder at the maximum clock and nominal
//     supply: every steady-state die-voltage reading runs this body.
//
// All transient rows live in caller-owned slab arenas (one per batch
// worker; see internal/slab lifetime rules) and are never retained past the
// item. The platform/core/vmin property tests pin every path bit for bit
// against references composed from the stage primitives.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dsp"
	"repro/internal/pdn"
	"repro/internal/power"
	"repro/internal/slab"
	"repro/internal/uarch"
)

// clusterLoad is the power-layer view of a load at an explicit clock — the
// single construction point of every evaluation path.
func (d *Domain) clusterLoad(l Load, clockHz float64) power.ClusterLoad {
	return power.ClusterLoad{
		Core:        d.Spec.Core,
		Seq:         l.Seq,
		ClockHz:     clockHz,
		ActiveCores: l.ActiveCores,
		PhaseCycles: l.PhaseCycles,
	}
}

// PrimeTraceAt simulates the load's clock-invariant trace once, sized for
// a campaign's largest (snapped) clock, and returns the handle every
// operating point of the campaign draws from (the simulator is purely
// cycle-domain, so lower clocks demand covered prefixes). Priming is an
// optimization only: any failure returns nil, and per-point evaluation
// then performs its own sizing and reproduces the scalar path's exact
// error.
func (d *Domain) PrimeTraceAt(l Load, dt float64, n int, maxClockHz float64) *uarch.Trace {
	if dt <= 0 || n < 1 || d.validateLoad(l) != nil {
		return nil
	}
	cl := d.clusterLoad(l, maxClockHz)
	if cl.Validate() != nil {
		return nil
	}
	tr, err := uarch.PrimeTrace(cl.Core, cl.Seq, cl.PrimeSteadyCycles(dt, n))
	if err != nil {
		return nil
	}
	return tr
}

// PointEval is one sized operating point of a batched campaign: the loop
// fundamental for band prefiltering plus the prepared simulation the
// spectra evaluation reuses, so an in-band point never sizes twice.
type PointEval struct {
	// LoopHz is the load's loop fundamental at this point's clock — the
	// value LoopHzAt reports, available before any spectra cost is paid.
	LoopHz float64

	d     *Domain
	load  Load
	clock float64
	sim   power.SteadySim
}

// PreparePointAt sizes one batched operating point at an explicit
// (snapped) clock, serving the simulation from tr when it covers the
// window (a nil trace falls back to per-point sizing). The underlying
// uarch result is the one a LoopHzAt call would carry, so prefilter
// decisions and spectra agree with the unprimed path bit for bit.
func (d *Domain) PreparePointAt(l Load, dt float64, n int, clockHz float64, tr *uarch.Trace) (PointEval, error) {
	if err := d.validateLoad(l); err != nil {
		return PointEval{}, err
	}
	sim, err := d.clusterLoad(l, clockHz).SteadySimTrace(dt, n, tr)
	if err != nil {
		return PointEval{}, err
	}
	return PointEval{
		LoopHz: power.LoopFrequency(sim.Res, clockHz),
		d:      d,
		load:   l,
		clock:  clockHz,
		sim:    sim,
	}, nil
}

// SpectraArena evaluates the prepared point's package-inductor current
// spectrum (what the EM path radiates) at an explicit (supply, powered)
// snapshot, drawing every transient row — including the amplitude output —
// from the caller's arena, so the results die at the arena's next Reset.
// Domain.SpectraArena is this call on an unprimed point at the maximum
// clock and nominal supply.
func (pe *PointEval) SpectraArena(supply float64, powered int, ar *slab.Arena) (freqs, iAmp []float64, err error) {
	d := pe.d
	n := pe.sim.N
	wave := ar.FloatsUninit(n) // FillFromSim overwrites (or clears) all n
	cl := d.clusterLoad(pe.load, pe.clock)
	if err := cl.FillFromSim(pe.sim, wave); err != nil {
		return nil, nil, err
	}
	idle := power.IdleCurrent(d.Spec.Core, pe.clock) * float64(powered-pe.load.ActiveCores)
	scale := supply / d.Spec.PDN.VNominal
	for i := range wave {
		wave[i] = (wave[i] + idle) * scale
	}
	ts, err := d.transferSetAt(powered, n, pe.sim.Dt)
	if err != nil {
		return nil, nil, err
	}
	half := n/2 + 1
	iAmp = ar.FloatsUninit(half) // the amplitude fold overwrites every bin
	freqs, err = ts.SpectraInto(nil, iAmp, wave,
		ar.ComplexesUninit(half), ar.ComplexesUninit(dsp.RFFTScratchLen(n)))
	if err != nil {
		return nil, nil, err
	}
	return freqs, iAmp, nil
}

// Ladder is the batched evaluator of one (load, clock) column of a V_MIN
// campaign. Everything supply-invariant is frozen at construction: the
// sized simulation, the resampled and slew-filtered base current waveform
// (idle lift and supply scaling apply after the slew filter), and the PDN
// transfer set. Each supply step then pays only the scale + FFT +
// inverse-FFT remainder, streamed through the owning arena's rows, and the (minV, droop) outcome is memoized per
// supply — the response is a pure function of (load, clock, supply,
// powered), so the repeated descents of a Repeat campaign and the shared
// nominal trial dedup to one evaluation.
//
// A Ladder is not safe for concurrent use; batch paths keep one per
// worker. Its rows live in the construction arena and die at that arena's
// next Reset.
type Ladder struct {
	d       *Domain
	idle    float64
	dt      float64
	ts      *pdn.TransferSet
	base    []float64 // post-slew cluster current, before idle lift / supply scale
	wave    []float64
	vdie    []float64
	spec    []complex128
	prod    []complex128
	scratch []complex128
	memo    map[float64]ladderPoint

	// The rung predictor's state, filled by the first PredictMinV: the
	// nominal rung's minimum die voltage and the supply-independent part
	// of the rounding bound (see PredictMinV).
	predReady bool
	nomMinV   float64
	nomErr    float64
}

type ladderPoint struct {
	minV, droop float64
}

// LadderAt prepares the supply-invariant parts of one V_MIN column at an
// explicit (snapped) clock, serving the simulation from tr when it covers
// the window (nil falls back to per-point sizing), at the view's
// powered-core count.
func (d *Domain) LadderAt(l Load, dt float64, n int, clockHz float64, tr *uarch.Trace, ar *slab.Arena) (*Ladder, error) {
	ld, _, err := d.ladderAt(l, dt, n, clockHz, d.PoweredCores(), tr, ar)
	return ld, err
}

// ladderAt is LadderAt at an explicit powered-core count; it also returns
// the column's micro-architectural result.
func (d *Domain) ladderAt(l Load, dt float64, n int, clockHz float64, powered int, tr *uarch.Trace, ar *slab.Arena) (*Ladder, *uarch.Result, error) {
	if err := d.validateLoad(l); err != nil {
		return nil, nil, err
	}
	cl := d.clusterLoad(l, clockHz)
	sim, err := cl.SteadySimTrace(dt, n, tr)
	if err != nil {
		return nil, nil, err
	}
	// The transfer set is supply-independent (the network is linear); the
	// nominal supply here only seeds a cache miss's model build.
	ts, err := d.transferSetAt(powered, n, dt)
	if err != nil {
		return nil, nil, err
	}
	base := ar.FloatsUninit(n)
	if err := cl.FillFromSim(sim, base); err != nil {
		return nil, nil, err
	}
	half := n/2 + 1
	return &Ladder{
		d:       d,
		idle:    power.IdleCurrent(d.Spec.Core, clockHz) * float64(powered-l.ActiveCores),
		dt:      dt,
		ts:      ts,
		base:    base,
		wave:    ar.FloatsUninit(n),
		vdie:    ar.FloatsUninit(n),
		spec:    ar.ComplexesUninit(half),
		prod:    ar.ComplexesUninit(half),
		scratch: ar.ComplexesUninit(dsp.RFFTScratchLen(n)),
	}, sim.Res, nil
}

// SteadyVDie returns the exact periodic steady-state die voltage under the
// workload at the maximum clock and nominal supply, plus the
// micro-architectural result for the loop: one rung of a fresh ladder.
// The response's VDie row lives in the caller's arena and dies at its next
// Reset; IDie is not computed.
func (d *Domain) SteadyVDie(l Load, dt float64, n int, ar *slab.Arena) (*pdn.Response, *uarch.Result, error) {
	ld, res, err := d.ladderAt(l, dt, n, d.ClockHz(), d.PoweredCores(), nil, ar)
	if err != nil {
		return nil, nil, err
	}
	if err := ld.rung(d.SupplyVolts()); err != nil {
		return nil, nil, err
	}
	return &pdn.Response{Dt: dt, VDie: ld.vdie}, res, nil
}

// checkSupply rejects a supply outside the ladder's range.
func (ld *Ladder) checkSupply(supply float64) error {
	if supply <= 0 || supply > 2*ld.d.Spec.PDN.VNominal {
		return fmt.Errorf("platform: %s: supply %v out of range", ld.d.Spec.Name, supply)
	}
	return nil
}

// rung solves the column at one supply into ld.vdie.
func (ld *Ladder) rung(supply float64) error {
	d := ld.d
	if err := ld.checkSupply(supply); err != nil {
		return err
	}
	scale := supply / d.Spec.PDN.VNominal
	for i, v := range ld.base {
		ld.wave[i] = (v + ld.idle) * scale
	}
	return ld.ts.SteadyStateInto(ld.vdie, ld.wave, supply, ld.spec, ld.prod, ld.scratch)
}

// MinVDroop evaluates the column at one supply: the response's minimum die
// voltage and its worst droop below the supply — the two scalars the V_MIN
// failure model consumes, memoized per supply.
func (ld *Ladder) MinVDroop(supply float64) (minV, droopV float64, err error) {
	if p, ok := ld.memo[supply]; ok {
		return p.minV, p.droop, nil
	}
	if err := ld.rung(supply); err != nil {
		return 0, 0, err
	}
	resp := pdn.Response{Dt: ld.dt, VDie: ld.vdie}
	minV = resp.MinVoltage()
	droopV = resp.MaxDroop(supply)
	if ld.memo == nil {
		ld.memo = make(map[float64]ladderPoint)
	}
	ld.memo[supply] = ladderPoint{minV: minV, droop: droopV}
	return minV, droopV, nil
}

// PredictSafety is the factor between PredictMinV's delta and the
// first-order rounding bound it is derived from: a solved rung lies within
// delta/PredictSafety of its prediction.
const PredictSafety = 1000

// PredictMinV predicts the column's minimum die voltage at a supply from
// the nominal rung, without solving the supply's own rung, and returns a
// bound delta with |MinVDroop(supply).minV − pred| ≤ delta/PredictSafety.
// delta is +Inf when the grid is not a radix-2 length (the derivation
// below does not cover the Bluestein path), so a caller that trusts the
// prediction only beyond delta falls back to solving the rung.
//
// The identity. A rung computes wave = (base+idle)·k with k = s/Vnom and
// vdie = s + r, r = IRFFT(RFFT(wave)·HV). r is linear in wave and k > 0,
// so in exact arithmetic r(s) = k·r(Vnom) sample for sample and
//
//	minV(s) = s + k·(minV(Vnom) − Vnom).
//
// The bound, to first order in the unit roundoff u = 2⁻⁵³, with x the
// exact wave at s, H = max|HV| (the 2-norm of the map wave → r, which is
// a circulant convolution) and m = n/2 points in the complex transforms:
//
//   - Twiddles. The radix-2 stages multiply cmplx.Exp's base twiddle up
//     to m/2 times; each product adds ≤ √2·γ₂ (Higham, Accuracy and
//     Stability, Lemma 3.5) to the base's ≤ 4u, so every twiddle is within
//     μ = 4mu. Higham Thm 24.2 bounds one m-point transform by
//     ‖ŷ−y‖₂ ≤ c·‖y‖₂, c = Lη/(1−Lη), L = log₂m, η = μ + γ₄(√2+μ).
//   - Input. The idle lift and the supply scale round wave by ≤ γ₃ per sample;
//     through the exact map that is ≤ 3u·H‖x‖₂.
//   - RFFT. ‖FFT_m(z)‖₂ = √m‖x‖₂; the untangle has 2-norm ≤ 2√2 and
//     rounds each bin by ≤ 16u of its two inputs' magnitudes, so the half
//     spectrum is off by ≤ 3(c+16u)·√m‖x‖₂. The per-bin product with HV
//     adds ≤ √2·γ₂·H·√n‖x‖₂.
//   - IRFFT. As a map from the half spectrum it has 2-norm ≤ 2√2/√n, so
//     the two terms above reach r as ≤ (6c + 104u)·H‖x‖₂. Its own
//     untangle adds ≤ 45u·H‖x‖₂ and its m-point transform c·H‖x‖₂ (the
//     1/m scale is exact, m being a power of two).
//   - Lift and min. vdie = s + r rounds by ≤ u(s + ‖r‖∞) ≤ u(s + H‖x‖₂),
//     and the minimum moves by at most the largest sample error.
//
// So a solved rung is within ε(s) = β·H‖x(s)‖₂ + u·s of the exact
// minV(s), β = 8c + 256u, with ‖x(s)‖₂ = k·a₀ for a₀ the nominal wave's
// 2-norm. The prediction pred = s + k̂·(m̂₀ − Vnom) inherits k·ε(Vnom)
// from the solved nominal minimum m̂₀ and rounds four times (the
// difference, the scale, the product, the sum): ≤ 4u·k|m̂₀−Vnom| + u·s.
// With k·Vnom = s the total is
//
//	|solved − pred| ≤ 2k·(β·H·a₀ + 2u·|m̂₀−Vnom|) + 3u·s,
//
// and delta is PredictSafety times that. On the default 8192-sample grid
// the built-in domains' delta is at most about 20 µV, against supply
// steps and threshold jitter of millivolts, while the observed gap
// between a solved rung and its prediction is a few ulps.
func (ld *Ladder) PredictMinV(supply float64) (pred, delta float64, err error) {
	if err := ld.checkSupply(supply); err != nil {
		return 0, 0, err
	}
	vnom := ld.d.Spec.PDN.VNominal
	if !ld.predReady {
		m0, _, err := ld.MinVDroop(vnom)
		if err != nil {
			return 0, 0, err
		}
		ld.nomMinV = m0
		ld.nomErr = ld.rungErrAt(m0 - vnom)
		ld.predReady = true
	}
	const u = 0x1p-53
	k := supply / vnom
	pred = supply + k*(ld.nomMinV-vnom)
	return pred, PredictSafety * (2*k*ld.nomErr + 3*u*supply), nil
}

// rungErrAt returns the supply-independent part of PredictMinV's bound,
// β·H·a₀ + 2u·|drop0|, or +Inf when the grid is not a radix-2 length.
func (ld *Ladder) rungErrAt(drop0 float64) float64 {
	n := len(ld.base)
	m := n / 2
	if n%2 != 0 || m < 2 || m&(m-1) != 0 {
		return math.Inf(1)
	}
	const u = 0x1p-53
	gamma := func(j float64) float64 { return j * u / (1 - j*u) }
	mu := 4 * float64(m) * u
	eta := mu + gamma(4)*(math.Sqrt2+mu)
	lg := float64(bits.TrailingZeros(uint(m)))
	c := lg * eta / (1 - lg*eta)
	beta := 8*c + 256*u
	var ss float64
	for _, v := range ld.base {
		w := v + ld.idle
		ss += w * w
	}
	return beta*ld.ts.MaxAbsHV()*math.Sqrt(ss) + 2*u*math.Abs(drop0)
}
