package emnoise

import (
	"io"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/experiments"
	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/lab/chaos"
	"repro/internal/pdn"
	"repro/internal/platform"
	"repro/internal/uarch"
	"repro/internal/vmin"
	"repro/internal/workload"
)

// Platforms and voltage domains.
type (
	// Platform is a board with one or more CPU voltage domains under a
	// single receiver antenna.
	Platform = platform.Platform
	// Domain is one voltage domain: PDN + core cluster + EM coupling path
	// plus its one runtime setting, the powered cores. Clock and supply
	// are per-call parameters of sweeps and V_MIN searches.
	Domain = platform.Domain
	// DomainSpec statically describes a domain.
	DomainSpec = platform.Spec
	// Load is a stress loop bound to a number of active cores.
	Load = platform.Load
	// PDNParams parameterizes a die-package-PCB power delivery network.
	PDNParams = pdn.Params
	// PDNModel is a PDN instance for a powered-core count.
	PDNModel = pdn.Model
	// CoreConfig describes a cycle-approximate core model.
	CoreConfig = uarch.Config
	// FailureParams calibrates a domain's V_MIN failure model.
	FailureParams = platform.FailureParams
)

// Built-in domain names.
const (
	DomainA72    = platform.DomainA72
	DomainA53    = platform.DomainA53
	DomainAthlon = platform.DomainAthlon
)

// JunoR2 builds the ARM Juno R2 big.LITTLE platform of the paper's Table 1
// (dual-core Cortex-A72 with OC-DSO, quad-core Cortex-A53 without voltage
// visibility).
func JunoR2() (*Platform, error) { return platform.JunoR2() }

// AMDDesktop builds the Athlon II X4 645 desktop platform of Table 1.
func AMDDesktop() (*Platform, error) { return platform.AMDDesktop() }

// NewPlatform assembles a custom platform from domain specs.
func NewPlatform(name string, antenna Antenna, specs ...DomainSpec) (*Platform, error) {
	return platform.NewPlatform(name, antenna, specs...)
}

// Core models of the three CPUs the paper characterizes.
var (
	CortexA72Core = uarch.CortexA72
	CortexA53Core = uarch.CortexA53
	AthlonIICore  = uarch.AthlonII
)

// EM front end.
type (
	// Antenna is the loop-antenna model (flat in band, 2.95 GHz
	// self-resonance).
	Antenna = em.Antenna
	// EMPath is the radiating/coupling path from a package to the antenna.
	EMPath = em.Path
)

// DefaultLoopAntenna returns the paper's 3 cm square loop antenna.
func DefaultLoopAntenna() Antenna { return em.DefaultLoopAntenna() }

// Instruments.
type (
	// SpectrumAnalyzer models a swept-tuned analyzer with RBW binning,
	// a noise floor and per-sweep measurement noise.
	SpectrumAnalyzer = instrument.SpectrumAnalyzer
	// DSO models a sampling oscilloscope (the Juno OC-DSO or a bench
	// scope on Kelvin pads).
	DSO = instrument.DSO
	// SCL is the Juno synthetic-current-load block.
	SCL = instrument.SCL
)

// NewOCDSO returns the Juno on-chip power-delivery monitor.
func NewOCDSO(seed int64) *DSO { return instrument.NewOCDSO(seed) }

// NewBenchScope returns a bench oscilloscope with a differential probe.
func NewBenchScope(seed int64) *DSO { return instrument.NewBenchScope(seed) }

// NewSCL returns a synthetic current load of the given amplitude.
func NewSCL(ampA float64) *SCL { return instrument.NewSCL(ampA) }

// The methodology bench.
type (
	// Bench couples a platform to the antenna and analyzer and implements
	// the paper's methods: EM-driven virus generation, the fast resonance
	// sweep, and multi-domain monitoring.
	Bench = core.Bench
	// Band is a frequency search band.
	Band = core.Band
	// SweepResult is a completed fast resonance sweep.
	SweepResult = core.SweepResult
)

// NewBench assembles a measurement bench with the paper's defaults.
func NewBench(p *Platform, seed int64) (*Bench, error) { return core.NewBench(p, seed) }

// DefaultBand returns the paper's 50-200 MHz first-order search band.
func DefaultBand() Band { return core.DefaultBand() }

// Genetic algorithm.
type (
	// GAConfig holds the stress-test generator's hyper-parameters.
	GAConfig = ga.Config
	// GAResult is a finished GA run (best individual plus history).
	GAResult = ga.Result
	// GAStats summarizes one generation.
	GAStats = ga.GenerationStats
	// Measurer evaluates one candidate stress loop.
	Measurer = ga.Measurer
	// MeasurerFunc adapts a function to Measurer.
	MeasurerFunc = ga.MeasurerFunc
	// Individual is a candidate stress loop with its measured fitness.
	Individual = ga.Individual
)

// DefaultGAConfig returns the paper's GA settings (50 individuals, 60
// generations, 50-instruction loops, 3% mutation, tournament selection).
func DefaultGAConfig(pool *Pool) GAConfig { return ga.DefaultConfig(pool) }

// RunGA executes the GA against an arbitrary fitness.
func RunGA(cfg GAConfig, m Measurer, progress func(GAStats)) (*GAResult, error) {
	return ga.Run(cfg, m, progress)
}

// Instruction sets.
type (
	// Pool is the instruction universe the GA draws operands from.
	Pool = isa.Pool
	// Inst is an instruction instance with concrete operands.
	Inst = isa.Inst
	// Arch identifies an instruction-set architecture.
	Arch = isa.Arch
)

// Architectures.
const (
	ARM64 = isa.ARM64
	X86   = isa.X86
)

// ARM64Pool returns the built-in ARMv8-like instruction pool.
func ARM64Pool() *Pool { return isa.ARM64Pool() }

// X86Pool returns the built-in x86-64/SSE2-like instruction pool.
func X86Pool() *Pool { return isa.X86Pool() }

// LoadPoolXML parses the GA's XML instruction-pool input format.
func LoadPoolXML(r io.Reader) (*Pool, error) { return isa.LoadPoolXML(r) }

// WritePoolXML serializes a pool in the XML input format.
func WritePoolXML(w io.Writer, p *Pool) error { return isa.WritePoolXML(w, p) }

// FormatProgram renders a stress loop as assembly text.
func FormatProgram(p *Pool, seq []Inst) string { return isa.FormatProgram(p, seq) }

// ParseProgram parses assembly text back into a stress loop.
func ParseProgram(p *Pool, text string) ([]Inst, error) { return isa.ParseProgram(p, text) }

// V_MIN testing.
type (
	// VminTester runs V_MIN searches against one domain.
	VminTester = vmin.Tester
	// VminResult is a completed V_MIN search.
	VminResult = vmin.Result
	// FailureKind classifies an execution outcome (pass, SDC, crashes).
	FailureKind = vmin.FailureKind
)

// Failure outcomes.
const (
	Pass        = vmin.Pass
	SDC         = vmin.SDC
	AppCrash    = vmin.AppCrash
	SystemCrash = vmin.SystemCrash
)

// NewVminTester returns a V_MIN tester for a domain.
func NewVminTester(d *Domain, seed int64) *VminTester { return vmin.NewTester(d, seed) }

// Workloads.
type (
	// Workload names a benchmark loop builder.
	Workload = workload.Workload
)

// WorkloadByName finds a workload (idle, probe, the SPEC2006 proxies, the
// desktop suite).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Workloads returns every built-in workload.
func Workloads() []Workload { return workload.All() }

// Remote lab orchestration (the paper's workstation/target split).
type (
	// LabServer is the target-machine daemon (self-contained measurement
	// requests, graceful Shutdown, per-command counters).
	LabServer = lab.Server
	// LabClient is the workstation side of the measurement loop:
	// per-command deadlines, classified errors, bounded-backoff retry with
	// reconnect and setpoint replay.
	LabClient = lab.Client
	// LabOptions tunes the client's resilience envelope (deadlines,
	// attempts, backoff).
	LabOptions = lab.Options
	// LabPool is a fixed-size set of lab clients for parallel remote
	// measurement (gahunt -remote -j N).
	LabPool = lab.Pool
	// LabStats is a snapshot of transport counters (dials, reconnects,
	// per-command latency/retries).
	LabStats = lab.Stats
	// ChaosProxy is a deterministic fault-injection TCP proxy for
	// exercising the transport's failure handling.
	ChaosProxy = chaos.Proxy
	// ChaosConfig sets the proxy's seeded drop/delay/garble rates.
	ChaosConfig = chaos.Config
)

// NewLabServer wraps a bench as a lab daemon.
func NewLabServer(b *Bench) (*LabServer, error) { return lab.NewServer(b) }

// DialLab connects to a lab daemon.
var DialLab = lab.Dial

// DialLabOptions connects to a lab daemon with explicit resilience options.
var DialLabOptions = lab.DialOptions

// NewLabPool dials a pool of concurrent lab clients to one daemon.
func NewLabPool(addr string, size int, opts LabOptions) (*LabPool, error) {
	return lab.NewPool(addr, size, opts)
}

// IsLabTargetError reports whether err is a target-side ERR reply (never
// retried) as opposed to a transport fault (retried transparently).
var IsLabTargetError = lab.IsTargetError

// NewChaosProxy starts a fault-injection proxy in front of a lab daemon.
func NewChaosProxy(upstream string, cfg ChaosConfig) (*ChaosProxy, error) {
	return chaos.New(upstream, cfg)
}

// Measurement backends: one interface over the local bench and the remote
// lab, observationally equivalent bit for bit.
type (
	// MeasureBackend is the unified measurement surface every tool runs
	// against: domain enumeration, measurer factories (EM and voltage),
	// fast sweeps, capability flags, V_MIN campaigns. Powered cores are an
	// argument of each request, never rig state.
	MeasureBackend = backend.Backend
	// LocalBackend adapts an in-process Bench to MeasureBackend.
	LocalBackend = backend.Local
	// RemoteBackend speaks the lab protocol to a labtarget daemon.
	RemoteBackend = backend.Remote
	// BackendCaps is a domain's capability record (cores, ISA, clock grid,
	// voltage visibility, DSO kind).
	BackendCaps = backend.Caps
	// BackendMeasurerSpec selects a measurer (domain, metric, active and
	// powered cores, averaging, DSO seed).
	BackendMeasurerSpec = backend.MeasurerSpec
	// BackendMetric names a fitness metric (em, droop, ptp).
	BackendMetric = backend.Metric
	// CapabilityError reports a metric requested on a domain whose
	// instrumentation cannot provide it.
	CapabilityError = backend.CapabilityError
)

// Fitness metrics.
const (
	MetricEM    = backend.MetricEM
	MetricDroop = backend.MetricDroop
	MetricPtp   = backend.MetricPtp
)

// NewLocalBackend wraps a bench as a MeasureBackend.
func NewLocalBackend(b *Bench) (*LocalBackend, error) { return backend.NewLocal(b) }

// NewRemoteBackend dials a labtarget daemon with a pool of `jobs`
// sessions, checking that it speaks this build's protocol version.
func NewRemoteBackend(addr string, jobs int, opts LabOptions) (*RemoteBackend, error) {
	return backend.NewRemote(addr, jobs, opts)
}

// BackendResonanceSweep runs the Section 5.3 fast resonance sweep on any
// MeasureBackend: one Sweep over the domain's whole clock grid.
var BackendResonanceSweep = backend.ResonanceSweep

// IsCapabilityError reports whether err is a capability mismatch (for
// example, the droop metric on a domain with no voltage visibility).
var IsCapabilityError = backend.IsCapabilityError

// ParseBackendMetric validates a metric name from the CLI.
var ParseBackendMetric = backend.ParseMetric

// Experiments: the paper's tables and figures.
type (
	// Experiment is one runnable paper artifact.
	Experiment = experiments.Experiment
	// ExperimentResult is a completed experiment with its report text and
	// headline values.
	ExperimentResult = experiments.Result
	// ExperimentOptions scales the suite (Quick vs paper-scale).
	ExperimentOptions = experiments.Options
	// ExperimentContext caches platforms and GA viruses across a suite run.
	ExperimentContext = experiments.Context
)

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment ("fig7", "tab2", ...).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// NewExperimentContext prepares the shared platforms and caches.
func NewExperimentContext(opts ExperimentOptions) (*ExperimentContext, error) {
	return experiments.NewContext(opts)
}
