package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dsp"
	"repro/internal/em"
	"repro/internal/instrument"
	"repro/internal/pdn"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/slab"
	"repro/internal/uarch"
)

// measurement is one EM measurement an op made: a load on a domain at one
// operating point, read by an analyzer over [lo, hi]. The replay runs it
// again stage by stage and must reproduce want bit for bit.
type measurement struct {
	op         int
	d          *platform.Domain
	load       platform.Load
	clockHz    float64
	supplyV    float64
	powered    int
	dt         float64
	n          int
	antenna    em.Antenna
	analyzer   *instrument.SpectrumAnalyzer
	lo, hi     float64
	samples    int
	wantDBm    float64
	wantPeakHz float64
	checkHz    bool // GA fitness reports the peak frequency; sweep points do not
}

// ladderColumn is one V_MIN shmoo column an op searched: the replay builds
// its supply ladder and evaluates every rung the descent visited.
type ladderColumn struct {
	op      int
	d       *platform.Domain
	load    platform.Load
	clockHz float64
	vminV   float64
	dt      float64
	n       int
}

// stageTimes holds the replay's per-stage samples. The stages are the
// measurement pipeline's entry points, called in order on one
// measurement's inputs with every cache bypassed.
type stageTimes struct {
	uarch      []time.Duration // uarch.PrimeTrace: the cycle simulation
	power      []time.Duration // power sizing + resample + slew, idle and supply scaling
	rfft       []time.Duration // dsp.RFFTInto of the current waveform alone
	pdnSelf    []time.Duration // pdn.TransferSet.SpectraInto minus its RFFT
	em         []time.Duration // em.CombineInto
	instrument []time.Duration // instrument.SpectrumAnalyzer.MeasurePeak
	pipeline   []time.Duration // the whole chain above, RFFT counted once
	ladder     []time.Duration // platform.Domain.LadderAt
	rung       []time.Duration // platform.Ladder.MinVDroop
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// replayMeasurement runs one measurement through the stage entry points
// with the trace cache disabled (the caller's job) and no memo in the way,
// and reports an error when the result differs from what the op measured.
func replayMeasurement(m measurement, st *stageTimes) error {
	cl := power.ClusterLoad{Core: m.d.Spec.Core, Seq: m.load.Seq, ClockHz: m.clockHz,
		ActiveCores: m.load.ActiveCores, PhaseCycles: m.load.PhaseCycles}
	params := m.d.Spec.PDN
	params.VNominal = m.supplyV
	model, err := pdn.NewModel(params, m.powered)
	if err != nil {
		return err
	}
	ts, err := model.Transfers(m.n, m.dt)
	if err != nil {
		return err
	}
	half := m.n/2 + 1
	wave := make([]float64, m.n)
	spec := make([]complex128, half)
	scratch := make([]complex128, dsp.RFFTScratchLen(m.n))
	vAmp := make([]float64, half)
	iAmp := make([]float64, half)
	watts := make([]float64, half)

	t0 := time.Now()
	tr, err := uarch.PrimeTrace(cl.Core, cl.Seq, cl.PrimeSteadyCycles(m.dt, m.n))
	if err != nil {
		return err
	}
	t1 := time.Now()
	sim, err := cl.SteadySimTrace(m.dt, m.n, tr)
	if err != nil {
		return err
	}
	if err := cl.FillFromSim(sim, wave); err != nil {
		return err
	}
	// The domain adds its powered-but-idle cores and scales by the supply.
	idle := power.IdleCurrent(m.d.Spec.Core, m.clockHz) * float64(m.powered-m.load.ActiveCores)
	scale := m.supplyV / m.d.Spec.PDN.VNominal
	for i := range wave {
		wave[i] = (wave[i] + idle) * scale
	}
	t2 := time.Now()
	freqs, err := ts.SpectraInto(vAmp, iAmp, wave, spec, scratch)
	if err != nil {
		return err
	}
	t3 := time.Now()
	if _, err := em.CombineInto(watts, m.antenna, []em.Emitter{{Freqs: freqs, IAmp: iAmp, Path: m.d.Spec.EMPath}}); err != nil {
		return err
	}
	t4 := time.Now()
	got, err := m.analyzer.MeasurePeak(freqs, watts, m.lo, m.hi, m.samples)
	if err != nil {
		return err
	}
	t5 := time.Now()
	dsp.RFFTInto(spec, wave, scratch)
	rfft := time.Since(t5)

	st.uarch = append(st.uarch, t1.Sub(t0))
	st.power = append(st.power, t2.Sub(t1))
	st.rfft = append(st.rfft, rfft)
	st.pdnSelf = append(st.pdnSelf, max(0, t3.Sub(t2)-rfft))
	st.em = append(st.em, t4.Sub(t3))
	st.instrument = append(st.instrument, t5.Sub(t4))
	st.pipeline = append(st.pipeline, t5.Sub(t0))

	if math.Float64bits(got.PeakDBm) != math.Float64bits(m.wantDBm) ||
		(m.checkHz && math.Float64bits(got.PeakHz) != math.Float64bits(m.wantPeakHz)) {
		return fmt.Errorf("replay: %s at %.0f Hz measured %v dBm / %v Hz, the op measured %v dBm / %v Hz",
			m.d.Spec.Name, m.clockHz, got.PeakDBm, got.PeakHz, m.wantDBm, m.wantPeakHz)
	}
	return nil
}

// replayLadder builds one shmoo column's supply ladder from a private
// trace and evaluates each rung the V_MIN descent visited, from nominal
// down to the column's V_MIN.
func replayLadder(c ladderColumn, st *stageTimes) error {
	tr := c.d.PrimeTraceAt(c.load, c.dt, c.n, c.clockHz)
	t0 := time.Now()
	ld, err := c.d.LadderAt(c.load, c.dt, c.n, c.clockHz, tr, &slab.Arena{})
	if err != nil {
		return err
	}
	st.ladder = append(st.ladder, time.Since(t0))
	nominal := c.d.Spec.PDN.VNominal
	step := c.d.Spec.VminStepVolts()
	rungs := int(math.Round((nominal-c.vminV)/step)) + 1
	for i := 0; i < rungs; i++ {
		t := time.Now()
		if _, _, err := ld.MinVDroop(nominal - float64(i)*step); err != nil {
			return err
		}
		st.rung = append(st.rung, time.Since(t))
	}
	return nil
}

// replayAll replays every recorded measurement and shmoo column with the
// trace cache off and returns the ops whose replay failed.
func replayAll(ms []measurement, cols []ladderColumn) (stageTimes, map[int]error) {
	prev := uarch.SetTraceCacheEnabled(false)
	defer uarch.SetTraceCacheEnabled(prev)
	var st stageTimes
	failed := map[int]error{}
	for _, m := range ms {
		if err := replayMeasurement(m, &st); err != nil {
			failed[m.op] = err
		}
	}
	for _, c := range cols {
		if err := replayLadder(c, &st); err != nil {
			failed[c.op] = err
		}
	}
	return st, failed
}
