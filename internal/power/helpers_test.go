package power

import (
	"fmt"

	"repro/internal/uarch"
)

// CurrentInto and MeanCurrent serve the tests only: the platform sizes a
// simulation once per operating point (SteadySimTrace) and resamples it
// per supply (FillFromSim).

// CurrentInto simulates the loop and writes the cluster current sampled at
// dt over n samples into dst (length n, fully overwritten), returning the
// micro-architectural result.
func (cl ClusterLoad) CurrentInto(dst []float64, dt float64, n int) (*uarch.Result, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 || n < 1 {
		return nil, fmt.Errorf("power: invalid sampling dt=%v n=%d", dt, n)
	}
	if len(dst) != n {
		return nil, fmt.Errorf("power: waveform buffer length %d, want %d", len(dst), n)
	}
	sim, err := cl.steadySim(dt, n, nil)
	if err != nil {
		return nil, err
	}
	cl.fillFromSim(sim, dst)
	return sim.Res, nil
}

// MeanCurrent returns the time average of a current waveform.
func MeanCurrent(wave []float64) float64 {
	if len(wave) == 0 {
		return 0
	}
	var s float64
	for _, v := range wave {
		s += v
	}
	return s / float64(len(wave))
}
