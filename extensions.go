package emnoise

import (
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/fingerprint"
	"repro/internal/instrument"
	"repro/internal/mitigate"
	"repro/internal/pdn"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/session"
	"repro/internal/vmin"

	"repro/internal/ga"
)

// This file exposes the beyond-the-paper extensions: the Section 10
// future-work items (GPU PDNs, margin prediction, tamper detection) and the
// adaptive-clocking latency study the Section 6 discussion motivates.

// GPU platform (future work a).

// DomainGPU names the GPU card's voltage domain.
const DomainGPU = platform.DomainGPU

// GPUCard builds a discrete-GPU platform: eight streaming multiprocessors
// under one rail with no voltage visibility.
func GPUCard() (*Platform, error) { return platform.GPUCard() }

// GPUSMCore returns the streaming-multiprocessor core model.
var GPUSMCore = platform.GPUSM

// Margin prediction from EM features (future work c).
type (
	// EMFeatures are the in-band emission observables of one workload.
	EMFeatures = predict.Features
	// PredictSample pairs EM features with ground-truth droop.
	PredictSample = predict.Sample
	// DroopModel is a fitted EM→droop regression.
	DroopModel = predict.Model
)

// ExtractEMFeatures measures a workload's EM features through the bench.
func ExtractEMFeatures(b *Bench, d *Domain, l Load) (EMFeatures, error) {
	return predict.Extract(b, d, l)
}

// CollectPredictSample records EM features plus true droop on an
// instrumented reference domain.
func CollectPredictSample(b *Bench, d *Domain, name string, l Load) (PredictSample, error) {
	return predict.Collect(b, d, name, l)
}

// TrainDroopModel fits the droop predictor by least squares.
func TrainDroopModel(samples []PredictSample) (*DroopModel, error) {
	return predict.Train(samples)
}

// Tamper detection (Section 5.3's motivation).
type (
	// Fingerprint is a captured electrical identity of a domain.
	Fingerprint = fingerprint.Fingerprint
	// FingerprintThresholds configures comparison sensitivity.
	FingerprintThresholds = fingerprint.Thresholds
	// FingerprintReport is the outcome of a comparison.
	FingerprintReport = fingerprint.Report
)

// CaptureFingerprint sweeps a domain and records its fingerprint.
func CaptureFingerprint(b *Bench, d *Domain, activeCores int) (*Fingerprint, error) {
	return fingerprint.Capture(b, d, activeCores)
}

// CompareFingerprints checks a fresh fingerprint against a reference.
func CompareFingerprints(reference, current *Fingerprint, th FingerprintThresholds) (*FingerprintReport, error) {
	return fingerprint.Compare(reference, current, th)
}

// DefaultFingerprintThresholds returns the standard drift limits.
func DefaultFingerprintThresholds() FingerprintThresholds {
	return fingerprint.DefaultThresholds()
}

// Adaptive-clocking study (Section 6 discussion).
type (
	// AdaptiveClock describes a droop detector + clock stretcher.
	AdaptiveClock = mitigate.AdaptiveClock
	// MitigationAnalysis is the outcome of replaying a voltage trace.
	MitigationAnalysis = mitigate.Analysis
	// PDNResponse is a time-domain die-voltage/inductor-current record.
	PDNResponse = pdn.Response
)

// AnalyzeMitigation replays a voltage trace against an adaptive clock.
func AnalyzeMitigation(ac AdaptiveClock, resp *PDNResponse, vnom float64) (*MitigationAnalysis, error) {
	return mitigate.Analyze(ac, resp, vnom)
}

// SDR front end.

// SDRReceiver models a cheap software-defined radio receiver.
type SDRReceiver = instrument.SDR

// NewRTLSDR returns an RTL-SDR-class receiver.
func NewRTLSDR(seed int64) *SDRReceiver { return instrument.NewRTLSDR(seed) }

// ExperimentExtensions lists the beyond-the-paper experiments
// (ext-gpu, ext-predict, ext-tamper, ext-mitigate, ext-sdr).
func ExperimentExtensions() []Experiment { return experiments.Extensions() }

// Island-model GA.
type (
	// IslandGAConfig runs several populations with ring migration.
	IslandGAConfig = ga.IslandConfig
	// IslandGAStats reports one island's per-generation progress.
	IslandGAStats = ga.IslandStats
)

// RunIslandGA executes the island-model GA.
func RunIslandGA(cfg IslandGAConfig, m Measurer, progress func(IslandGAStats)) (*GAResult, error) {
	return ga.RunIslands(cfg, m, progress)
}

// Shmoo curves.

// ShmooPoint is one operating point of a V_MIN-vs-frequency shmoo.
type ShmooPoint = vmin.ShmooPoint

// Session reports.
type (
	// SessionReport is a JSON-serializable characterization record.
	SessionReport = session.Report
)

// NewSessionReport starts a report for a domain's current state.
func NewSessionReport(p *Platform, d *Domain, now time.Time) *SessionReport {
	return session.NewLocal(p, d, now)
}

// NewSessionReportFor starts a report through any measurement backend
// (local or remote), capturing the domain's powered cores as the backend
// observes them.
func NewSessionReportFor(be MeasureBackend, domain string, now time.Time) (*SessionReport, error) {
	return session.New(be, domain, now)
}

// LoadSessionReport parses a stored report.
func LoadSessionReport(r io.Reader) (*SessionReport, error) { return session.Load(r) }

// Thermal helpers.

// PDNAtTemperature returns PDN parameters adjusted by deltaC kelvin from
// their calibration temperature.
func PDNAtTemperature(p PDNParams, deltaC float64) PDNParams { return p.AtTemperature(deltaC) }
