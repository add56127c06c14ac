package platform

import (
	"testing"

	"repro/internal/pdn"
	"repro/internal/power"
	"repro/internal/slab"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// The full transient solve below is the reference the steady-state path
// (SteadyVDie) is checked and benchmarked against; no program runs it.

// currentAt fills buf (length n) with the total load current drawn from
// this domain's rail by the workload at an explicit operating point,
// sampled at dt, and returns the micro-architectural result for the loop.
// The current scales with the supply setting (dynamic charge is
// proportional to voltage).
func (d *Domain) currentAt(l Load, dt float64, n int, clock, supply float64, powered int, buf []float64) (*uarch.Result, error) {
	if err := d.validateLoad(l); err != nil {
		return nil, err
	}
	cl := d.clusterLoad(l, clock)
	sim, err := cl.SteadySimTrace(dt, n, nil)
	if err != nil {
		return nil, err
	}
	if err := cl.FillFromSim(sim, buf); err != nil {
		return nil, err
	}
	idle := power.IdleCurrent(d.Spec.Core, clock) * float64(powered-l.ActiveCores)
	scale := supply / d.Spec.PDN.VNominal
	for i := range buf {
		buf[i] = (buf[i] + idle) * scale
	}
	return sim.Res, nil
}

// TransientResponse integrates the PDN under the workload's current
// waveform with the full transient solver at the domain's operating point.
func (d *Domain) TransientResponse(l Load, dt float64, n int) (*pdn.Response, *uarch.Result, error) {
	d.mu.Lock()
	clock, supply, powered := d.clockHz, d.supplyVolts, d.poweredCores
	d.mu.Unlock()
	wave := make([]float64, n)
	res, err := d.currentAt(l, dt, n, clock, supply, powered, wave)
	if err != nil {
		return nil, nil, err
	}
	m, err := d.modelAt(powered, supply)
	if err != nil {
		return nil, nil, err
	}
	sampled := func(t float64) float64 {
		return wave[min(max(int(t/dt), 0), len(wave)-1)]
	}
	resp, err := m.Transient(sampled, dt, n-1)
	if err != nil {
		return nil, nil, err
	}
	return resp, res, nil
}

// transferSet is transferSetAt at the domain's powered-core count and
// supply.
func (d *Domain) transferSet(n int, dt float64) (*pdn.TransferSet, error) {
	d.mu.Lock()
	cores, supply := d.poweredCores, d.supplyVolts
	d.mu.Unlock()
	return d.transferSetAt(cores, supply, n, dt)
}

// BenchmarkAblationFreqVsTransient measures the frequency-domain
// steady-state path against the reference transient solver: the fitness
// loop runs thousands of evaluations, so the speedup is the reason the GA
// finishes in minutes instead of hours.
func BenchmarkAblationFreqVsTransient(b *testing.B) {
	p, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	d, err := p.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		b.Fatal(err)
	}
	l := Load{Seq: seq, ActiveCores: 2}
	const (
		dt = 0.25e-9
		n  = 8192
	)
	b.Run("steady-state", func(b *testing.B) {
		var ptp float64
		var ar slab.Arena
		for i := 0; i < b.N; i++ {
			ar.Reset()
			resp, _, err := d.SteadyVDie(l, dt, n, &ar)
			if err != nil {
				b.Fatal(err)
			}
			ptp = resp.PeakToPeak()
		}
		b.ReportMetric(ptp*1e3, "ptp_mv")
	})
	b.Run("transient", func(b *testing.B) {
		var ptp float64
		for i := 0; i < b.N; i++ {
			resp, _, err := d.TransientResponse(l, dt, n)
			if err != nil {
				b.Fatal(err)
			}
			steady := pdn.Response{VDie: resp.VDie[n/2:]}
			ptp = steady.PeakToPeak()
		}
		b.ReportMetric(ptp*1e3, "ptp_mv")
	})
}
