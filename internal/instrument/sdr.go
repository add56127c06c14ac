package instrument

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/detrand"
	"repro/internal/dsp"
)

// SDR models a cheap software-defined radio receiver (the paper notes that
// "cheaper commercial software-defined radio receivers should also work" as
// the sensing front end). Unlike the swept analyzer it digitizes a narrow
// complex-baseband slice around its tuned centre; covering the 50-200 MHz
// search band means hopping across it (Scan), which is slower and noisier
// but orders of magnitude cheaper — an RTL-SDR versus a bench analyzer.
type SDR struct {
	Model         string
	SampleRateHz  float64 // complex sample rate = usable bandwidth
	Bits          int     // ADC resolution (8 for RTL-SDR-class parts)
	NoiseFloorDBm float64 // equivalent noise power per capture bandwidth
	FullScaleV    float64 // ADC full-scale at the antenna port
	GainDB        float64 // front-end LNA gain ahead of the ADC

	centerHz float64
	seed     int64 // base of the per-capture noise streams
}

// NewRTLSDR returns an RTL-SDR-class receiver: 2.4 MS/s, 8 bits, a mediocre
// noise floor.
func NewRTLSDR(seed int64) *SDR {
	return &SDR{
		Model:         "rtl-sdr",
		SampleRateHz:  2.4e6,
		Bits:          8,
		NoiseFloorDBm: -80,
		FullScaleV:    0.5,
		GainDB:        30,
		seed:          seed,
	}
}

// Validate reports the first problem with the receiver configuration.
func (s *SDR) Validate() error {
	if s.SampleRateHz <= 0 || s.Bits < 1 || s.Bits > 16 || s.FullScaleV <= 0 {
		return fmt.Errorf("instrument: invalid SDR config %+v", s)
	}
	return nil
}

// Tune sets the receiver centre frequency.
func (s *SDR) Tune(centerHz float64) error {
	if centerHz <= 0 {
		return fmt.Errorf("instrument: invalid SDR centre %v", centerHz)
	}
	s.centerHz = centerHz
	return nil
}

// CaptureIQ digitizes n complex baseband samples of the incident power
// spectrum (freqs in Hz, powers in watts into 50 ohm). Spectral lines
// within ±SampleRate/2 of the centre appear as complex tones; thermal noise
// and quantization are added.
func (s *SDR) CaptureIQ(freqs, watts []float64, n int) ([]complex128, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.centerHz <= 0 {
		return nil, fmt.Errorf("instrument: SDR not tuned")
	}
	if len(freqs) != len(watts) {
		return nil, fmt.Errorf("instrument: spectrum length mismatch %d vs %d", len(freqs), len(watts))
	}
	if n < 2 {
		return nil, fmt.Errorf("instrument: need at least 2 IQ samples")
	}
	ch := detrand.NewHash()
	ch.Float64(s.centerHz)
	ch.Int(n)
	ch.Floats(freqs)
	ch.Floats(watts)
	rng := detrand.Stream(s.seed, ch.Sum())
	iq := make([]complex128, n)
	half := s.SampleRateHz / 2
	for i, f := range freqs {
		off := f - s.centerHz
		if off < -half || off >= half || watts[i] <= 0 {
			continue
		}
		// Amplitude of a tone of power P into 50 ohm: V = sqrt(2*P*50).
		amp := math.Sqrt(2 * watts[i] * 50)
		phase := rng.Float64() * 2 * math.Pi
		w := 2 * math.Pi * off / s.SampleRateHz
		for k := 0; k < n; k++ {
			iq[k] += complex(amp, 0) * cmplx.Exp(complex(0, w*float64(k)+phase))
		}
	}
	// Thermal noise spread across the capture bandwidth, then the LNA,
	// then quantization at the ADC. The recorded samples are referred back
	// to the antenna port (divided by the gain) so power readings stay
	// absolute.
	noiseV := math.Sqrt(dsp.FromDBm(s.NoiseFloorDBm) * 50)
	gain := math.Pow(10, s.GainDB/20)
	lsb := s.FullScaleV / float64(int(1)<<uint(s.Bits))
	for k := range iq {
		re := (real(iq[k]) + rng.NormFloat64()*noiseV) * gain
		im := (imag(iq[k]) + rng.NormFloat64()*noiseV) * gain
		iq[k] = complex(math.Round(re/lsb)*lsb/gain, math.Round(im/lsb)*lsb/gain)
	}
	return iq, nil
}

// SliceSpectrum captures one IQ buffer and returns the power spectrum of
// the tuned slice: absolute frequencies and dBm per bin.
func (s *SDR) SliceSpectrum(freqs, watts []float64, n int) (*Sweep, error) {
	iq, err := s.CaptureIQ(freqs, watts, n)
	if err != nil {
		return nil, err
	}
	spec := dsp.FFT(iq)
	out := &Sweep{Freqs: make([]float64, n), DBm: make([]float64, n)}
	for k := 0; k < n; k++ {
		// FFT bin k maps to baseband offset; shift to centre the slice.
		off := float64(k) / float64(n) * s.SampleRateHz
		if k >= n/2 {
			off -= s.SampleRateHz
		}
		amp := cmplx.Abs(spec[k]) / float64(n)
		p := amp * amp / (2 * 50) // tone power into 50 ohm
		out.Freqs[k] = s.centerHz + off
		out.DBm[k] = dsp.DBm(p)
	}
	// Order bins by ascending absolute frequency.
	ordered := &Sweep{Freqs: make([]float64, n), DBm: make([]float64, n)}
	idx := 0
	for k := n / 2; k < n; k++ {
		ordered.Freqs[idx], ordered.DBm[idx] = out.Freqs[k], out.DBm[k]
		idx++
	}
	for k := 0; k < n/2; k++ {
		ordered.Freqs[idx], ordered.DBm[idx] = out.Freqs[k], out.DBm[k]
		idx++
	}
	return ordered, nil
}

// Scan hops the receiver across [lo, hi] and stitches the slice spectra
// into one sweep, the way cheap SDR spectrum tools cover wide spans.
func (s *SDR) Scan(freqs, watts []float64, lo, hi float64, samplesPerSlice int) (*Sweep, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("instrument: invalid scan span [%v, %v]", lo, hi)
	}
	usable := s.SampleRateHz * 0.8 // skip slice edges (filter roll-off)
	out := &Sweep{}
	for center := lo + usable/2; center-usable/2 < hi; center += usable {
		if err := s.Tune(center); err != nil {
			return nil, err
		}
		slice, err := s.SliceSpectrum(freqs, watts, samplesPerSlice)
		if err != nil {
			return nil, err
		}
		for i, f := range slice.Freqs {
			if f < center-usable/2 || f >= center+usable/2 || f < lo || f > hi {
				continue
			}
			out.Freqs = append(out.Freqs, f)
			out.DBm = append(out.DBm, slice.DBm[i])
		}
	}
	if len(out.Freqs) == 0 {
		return nil, fmt.Errorf("instrument: scan produced no bins")
	}
	return out, nil
}
