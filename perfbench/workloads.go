package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"os"

	"repro/internal/backend"
	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/platform"
	"repro/internal/uarch"
	"repro/internal/vmin"
	"repro/internal/workload"
)

// The paper's Fig. 7 search: Juno R2 Cortex-A72 cluster, both cores running
// the loop, population 50, 60 generations of 50-instruction loops, 30
// analyzer sweeps averaged per measurement.
const (
	gaPlatform    = "juno-r2"
	gaDomain      = "cortex-a72"
	gaActiveCores = 2
	gaPopulation  = 50
	gaGenerations = 60
	gaSeqLen      = 50
	gaSamples     = 30
)

// Replay sampling: how many of an op's measurements the traced run replays
// stage by stage. Enough for a few hundred samples per stage in a run
// without letting the replay dominate the traced run's length.
const (
	replayPerGeneration = 2
	replayPerSweep      = 3
	replayPerShmoo      = 2
)

// session is one workload's state for one pass over its work list. The
// driver times op from outside; prepare, after and finish are untimed.
type session interface {
	// ops is the length of the work list.
	ops() int
	// prepare readies op i: breeding the population a GA op evaluates,
	// emptying the trace cache before a cold op.
	prepare(i int) error
	// op performs op i through the program's public entry points and
	// returns the work units it completed.
	op(i int) (work int, err error)
	// after checks op i's outputs and collects its counters.
	after(i int) error
	// finish runs the checks that need the whole work list and returns the
	// ops they failed.
	finish() map[int]error
	// counters reports the per-layer counters the pass accumulated.
	counters() *counters
	close() error
}

// counters are the per-layer counts a pass accumulates, read from the
// program's own statistics, plus the measurements the traced run replays.
type counters struct {
	batch                      core.BatchStats
	traceHits, traceMisses     uint64
	extrapolated               uint64
	spectraHits, spectraMisses uint64
	store                      *castore.Stats // restart only
	transport                  *lab.Stats     // remote-lab only
	measurements               []measurement
	columns                    []ladderColumn
	digest                     string // GA workloads: digest of every generation's results
}

func (c *counters) addBatch(s core.BatchStats) {
	c.batch.Batches += s.Batches
	c.batch.Items += s.Items
	c.batch.Measured += s.Measured
	c.batch.DedupHits += s.DedupHits
	c.batch.MemoHits += s.MemoHits
}

func (c *counters) addSpectra(d *platform.Domain) {
	h, m, _ := d.SpectraCacheStats()
	c.spectraHits += h
	c.spectraMisses += m
}

func (c *counters) addTrace(s uarch.CacheStats) {
	c.traceHits += s.Hits
	c.traceMisses += s.Misses
}

// resetTraceCache empties the process-wide trace cache, as a new process
// starts, after folding its counters into c.
func (c *counters) resetTraceCache() {
	c.addTrace(uarch.TraceCacheStats())
	uarch.ResetTraceCache()
}

// runConfig is what every workload derives its work list from.
type runConfig struct {
	seed    int64
	seconds int
	// scratch is the directory restart creates its temporary store in.
	scratch string
}

// workloadDef names a workload and builds its sessions.
type workloadDef struct {
	name string
	unit string // the work unit work_per_s counts
	open func(cfg runConfig, tr *tracer) (session, error)
}

var workloads = []workloadDef{
	{"ga-search", "individuals", openGASearch},
	{"op-campaign", "operating-points", openOpCampaign},
	{"restart", "individuals", openRestart},
	{"remote-lab", "individuals", openRemoteLab},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Work-list lengths per nominal second, sized so a run lasts about
// --seconds on a 2-vCPU Xeon host. They fix the work; the time is measured.
const (
	gaGensPerSecond     = 36   // ga-search and remote-lab generations: 12 GA runs in 20 s
	campaignOpsPerSec   = 10   // op-campaign operating-point campaigns
	restartOpsPerSecond = 1000 // restart warm-start generations
	restartGenerations  = 2    // generations restart's setup stores
	campaignShmooCols   = 3    // shmoo columns per op-campaign op
)

func opsFor(seconds, perSecond int) int { return max(1, seconds*perSecond) }

// deriveSeed mixes a workload seed with a stream index (splitmix64), so
// sub-seeds are a pure function of the workload seed.
func deriveSeed(seed int64, k uint64) int64 {
	z := uint64(seed) + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// gaTraffic is the Fig. 7 search as a work list: consecutive GA runs, each
// seeded from the workload seed, one op per generation. ga-search,
// remote-lab and restart's setup all step the same traffic.
type gaTraffic struct {
	cfg  ga.Config
	seed int64
	rng  *rand.Rand
	pop  []ga.Individual
	tr   *tracer
}

func newGATraffic(d *platform.Domain, seed int64, tr *tracer) *gaTraffic {
	cfg := ga.DefaultConfig(d.Spec.Pool())
	cfg.PopulationSize = gaPopulation
	cfg.Generations = gaGenerations
	cfg.SeqLen = gaSeqLen
	cfg.Parallelism = 1
	return &gaTraffic{cfg: cfg, seed: seed, tr: tr}
}

// next makes the population op i evaluates: a random one at the start of
// each GA run, otherwise the previous generation bred.
func (g *gaTraffic) next(i int) {
	if i%gaGenerations == 0 {
		g.rng = rand.New(rand.NewSource(deriveSeed(g.seed, uint64(i/gaGenerations))))
		g.pop = make([]ga.Individual, g.cfg.PopulationSize)
		for k := range g.pop {
			g.pop[k] = ga.Individual{Seq: g.cfg.Pool.RandomSequence(g.rng, g.cfg.SeqLen)}
		}
		return
	}
	end := g.tr.begin("ga.breed")
	g.pop = ga.NextGeneration(g.cfg, g.rng, g.pop)
	end()
}

// evaluate is the op: one generation through ga.EvaluatePopulation.
func (g *gaTraffic) evaluate(m ga.Measurer) error {
	end := g.tr.begin("ga.evaluate")
	defer end()
	return ga.EvaluatePopulation(g.pop, m, g.cfg.Parallelism)
}

// genResult is one individual's measured (fitness, dominant Hz).
type genResult struct{ fit, hz float64 }

func resultsOf(pop []ga.Individual) []genResult {
	out := make([]genResult, len(pop))
	for i, in := range pop {
		out[i] = genResult{in.Fitness, in.DominantHz}
	}
	return out
}

func sameResults(a, b []genResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].fit) != math.Float64bits(b[i].fit) ||
			math.Float64bits(a[i].hz) != math.Float64bits(b[i].hz) {
			return false
		}
	}
	return true
}

// digest hashes every generation's results in order.
func digest(gens [][]genResult) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		u := math.Float64bits(f)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	for _, g := range gens {
		for _, r := range g {
			put(r.fit)
			put(r.hz)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkGeneration is the per-generation output check: every fitness is a
// finite power and every dominant frequency lies in the search band.
func checkGeneration(rs []genResult, band core.Band) error {
	for k, r := range rs {
		if math.IsNaN(r.fit) || math.IsInf(r.fit, 0) || r.hz < band.Lo || r.hz > band.Hi {
			return fmt.Errorf("individual %d: fitness %v dBm at %v Hz", k, r.fit, r.hz)
		}
	}
	return nil
}

// tracedMeasurer records a span around each batch call into the layer
// under the GA.
type tracedMeasurer struct {
	ga.BatchMeasurer
	tr   *tracer
	name string
}

func (m tracedMeasurer) MeasureBatch(items []ga.BatchItem, parallelism int) ([]ga.BatchResult, error) {
	end := m.tr.begin(m.name)
	defer end()
	return m.BatchMeasurer.MeasureBatch(items, parallelism)
}

func traced(m ga.Measurer, tr *tracer, name string) ga.Measurer {
	bm, ok := m.(ga.BatchMeasurer)
	if tr == nil || !ok {
		return m
	}
	return tracedMeasurer{BatchMeasurer: bm, tr: tr, name: name}
}

// loadRegistry parses and validates every built-in platform spec into a
// fresh registry: the work a new process does before it can build a
// platform, and so part of every workload's set-up.
func loadRegistry() (*platform.Registry, error) {
	reg := platform.NewRegistry()
	for _, name := range platform.BuiltinNames() {
		src, err := platform.Builtin().Source(name)
		if err != nil {
			return nil, err
		}
		if _, err := reg.RegisterSpec(src); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// newGABench builds the local A72 bench every GA workload measures on.
func newGABench(reg *platform.Registry, seed int64) (*core.Bench, *platform.Domain, error) {
	p, err := reg.Build(gaPlatform)
	if err != nil {
		return nil, nil, err
	}
	b, err := core.NewBench(p, seed)
	if err != nil {
		return nil, nil, err
	}
	b.Samples = gaSamples
	b.Parallelism = 1
	d, err := p.Domain(gaDomain)
	if err != nil {
		return nil, nil, err
	}
	return b, d, nil
}

// gaMeasurement describes individual in as op measured it on bench b.
func gaMeasurement(op int, b *core.Bench, d *platform.Domain, in ga.Individual) measurement {
	return measurement{
		op: op, d: d, load: platform.Load{Seq: in.Seq, ActiveCores: gaActiveCores},
		clockHz: d.ClockHz(), supplyV: d.SupplyVolts(), powered: d.PoweredCores(),
		dt: b.Dt, n: b.N, antenna: b.Platform.Antenna, analyzer: b.Analyzer,
		lo: b.Band.Lo, hi: b.Band.Hi, samples: b.Samples,
		wantDBm: in.Fitness, wantPeakHz: in.DominantHz, checkHz: true,
	}
}

// gaRecorder keeps what the GA workloads check and replay: every
// generation's results, and the first few never-seen individuals of each
// generation for the traced replay.
type gaRecorder struct {
	gens    [][]genResult
	seen    map[uint64]bool
	replay  bool
	c       *counters
	b       *core.Bench
	d       *platform.Domain
	extrap0 uint64 // uarch.ExtrapolatedCycles when the session opened
}

func newGARecorder(b *core.Bench, d *platform.Domain, tr *tracer, c *counters) gaRecorder {
	return gaRecorder{seen: map[uint64]bool{}, replay: tr != nil, c: c, b: b, d: d,
		extrap0: uarch.ExtrapolatedCycles()}
}

func (r *gaRecorder) record(op int, pop []ga.Individual) error {
	rs := resultsOf(pop)
	r.gens = append(r.gens, rs)
	if r.replay {
		picked := 0
		for _, in := range pop {
			h := platform.Load{Seq: in.Seq, ActiveCores: gaActiveCores}.Hash()
			if r.seen[h] {
				continue
			}
			r.seen[h] = true
			if picked < replayPerGeneration {
				r.c.measurements = append(r.c.measurements, gaMeasurement(op, r.b, r.d, in))
				picked++
			}
		}
	}
	return checkGeneration(rs, r.b.Band)
}

// counters fills in what both GA workloads report: the measuring bench's
// spectra cache, the trace cache, extrapolation and the digest.
func (r *gaRecorder) counters() *counters {
	r.c.addSpectra(r.d)
	r.c.addTrace(uarch.TraceCacheStats())
	r.c.extrapolated = uarch.ExtrapolatedCycles() - r.extrap0
	r.c.digest = digest(r.gens)
	return r.c
}

// gaSearch: each op is one generation's ga.EvaluatePopulation on a local
// bench, through the batch path with its memo, under the in-memory trace
// and spectra caches.
type gaSearch struct {
	n       int
	traffic *gaTraffic
	bench   *core.Bench
	m       ga.Measurer
	rec     gaRecorder
	c       counters
}

func openGASearch(cfg runConfig, tr *tracer) (session, error) {
	uarch.ResetTraceCache()
	reg, err := loadRegistry()
	if err != nil {
		return nil, err
	}
	b, d, err := newGABench(reg, cfg.seed)
	if err != nil {
		return nil, err
	}
	s := &gaSearch{
		n:       opsFor(cfg.seconds, gaGensPerSecond),
		traffic: newGATraffic(d, cfg.seed, tr),
		bench:   b,
		m:       traced(b.EMMeasurer(d, gaActiveCores), tr, "core.measure_batch"),
	}
	s.rec = newGARecorder(b, d, tr, &s.c)
	return s, nil
}

func (s *gaSearch) ops() int              { return s.n }
func (s *gaSearch) prepare(i int) error   { s.traffic.next(i); return nil }
func (s *gaSearch) after(i int) error     { return s.rec.record(i, s.traffic.pop) }
func (s *gaSearch) finish() map[int]error { return nil }
func (s *gaSearch) close() error          { return nil }

func (s *gaSearch) op(i int) (int, error) {
	return len(s.traffic.pop), s.traffic.evaluate(s.m)
}

func (s *gaSearch) counters() *counters {
	s.c.addBatch(s.bench.BatchStats())
	return s.rec.counters()
}

// remoteLab runs the ga-search traffic through a fleet of one remote rig:
// a backend.Remote with one session, over loopback, to an in-process
// lab.Server on its own bench.
type remoteLab struct {
	n       int
	seed    int64
	reg     *platform.Registry
	traffic *gaTraffic
	srv     *lab.Server
	served  chan error
	remote  *backend.Remote
	fl      *fleet.Fleet
	m       ga.Measurer
	rec     gaRecorder
	checks  []remoteCheck
	c       counters
}

func openRemoteLab(cfg runConfig, tr *tracer) (session, error) {
	uarch.ResetTraceCache()
	reg, err := loadRegistry()
	if err != nil {
		return nil, err
	}
	b, d, err := newGABench(reg, cfg.seed)
	if err != nil {
		return nil, err
	}
	srv, err := lab.NewServer(b)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &remoteLab{
		n: opsFor(cfg.seconds, gaGensPerSecond), seed: cfg.seed, reg: reg,
		traffic: newGATraffic(d, cfg.seed, tr),
		srv:     srv, served: make(chan error, 1),
	}
	go func() { s.served <- srv.Serve(ln) }()
	s.rec = newGARecorder(b, d, tr, &s.c)
	if s.remote, err = backend.NewRemote(ln.Addr().String(), 1, lab.Options{}); err != nil {
		s.close()
		return nil, err
	}
	if s.fl, err = fleet.New([]fleet.Rig{{Name: "loopback", Backend: s.remote}}, fleet.Options{Slots: 1}); err != nil {
		s.remote.Close()
		s.close()
		return nil, err
	}
	m, err := s.fl.Measurer(backend.MeasurerSpec{Domain: gaDomain, Metric: backend.MetricEM,
		ActiveCores: gaActiveCores, Samples: gaSamples})
	if err != nil {
		s.close()
		return nil, err
	}
	s.m = traced(m, tr, "fleet.measure_batch")
	return s, nil
}

func (s *remoteLab) ops() int            { return s.n }
func (s *remoteLab) prepare(i int) error { s.traffic.next(i); return nil }

// remoteCheck is one remotely measured individual the local check repeats.
type remoteCheck struct {
	op     int
	seq    []isa.Inst
	remote genResult
}

// remoteChecksPerGeneration is how many individuals of each generation the
// local check measures again: the first ones, so elites (re-measured
// unchanged by every generation) are always among them.
const remoteChecksPerGeneration = 4

func (s *remoteLab) after(i int) error {
	for _, in := range s.traffic.pop[:remoteChecksPerGeneration] {
		s.checks = append(s.checks, remoteCheck{op: i, seq: in.Seq, remote: genResult{in.Fitness, in.DominantHz}})
	}
	return s.rec.record(i, s.traffic.pop)
}

func (s *remoteLab) op(i int) (int, error) {
	return len(s.traffic.pop), s.traffic.evaluate(s.m)
}

// finish measures the individuals sampled for the local check on a local
// bench and requires each to match what the remote rig returned, bit for
// bit. The digest compares every generation with ga-search across processes.
func (s *remoteLab) finish() map[int]error {
	failed := map[int]error{}
	b, d, err := newGABench(s.reg, s.seed)
	if err != nil {
		failed[0] = err
		return failed
	}
	m := b.EMMeasurer(d, gaActiveCores)
	for _, c := range s.checks {
		fit, hz, err := m.Measure(c.seq)
		if err != nil {
			failed[c.op] = err
		} else if !sameResults([]genResult{{fit, hz}}, []genResult{c.remote}) {
			failed[c.op] = fmt.Errorf("generation %d: remote measured %v dBm / %v Hz, a local bench %v dBm / %v Hz",
				c.op, c.remote.fit, c.remote.hz, fit, hz)
		}
	}
	return failed
}

func (s *remoteLab) counters() *counters {
	st := s.remote.TransportStats()
	s.c.transport = &st
	return s.rec.counters()
}

func (s *remoteLab) close() error {
	var err error
	if s.fl != nil {
		err = s.fl.Close()
	}
	if serr := s.srv.Shutdown(); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// restart: a warm start. Setup evaluates the first generations of the
// ga-search traffic cold into a fresh persistent store; each op then
// stands in for a new process (empty trace cache, fresh platform and
// bench) and evaluates one of those generations, which the store serves.
type restart struct {
	n     int
	seed  int64
	reg   *platform.Registry
	dir   string
	store *castore.Store
	base  castore.Stats
	pops  [][]ga.Individual
	cold  [][]genResult
	tr    *tracer
	c     counters

	pop   []ga.Individual
	bench *core.Bench
	dom   *platform.Domain
}

func openRestart(cfg runConfig, tr *tracer) (session, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "restart-")
	if err != nil {
		return nil, err
	}
	s := &restart{n: opsFor(cfg.seconds, restartOpsPerSecond), seed: cfg.seed, dir: dir, tr: tr}
	if s.store, err = castore.Open(dir, castore.Options{}); err != nil {
		s.close()
		return nil, err
	}
	uarch.SetPersistentStore(s.store)
	platform.SetPersistentStore(s.store)
	core.SetPersistentStore(s.store)

	uarch.ResetTraceCache()
	if s.reg, err = loadRegistry(); err != nil {
		s.close()
		return nil, err
	}
	b, d, err := newGABench(s.reg, cfg.seed)
	if err != nil {
		s.close()
		return nil, err
	}
	traffic := newGATraffic(d, cfg.seed, nil)
	m := b.EMMeasurer(d, gaActiveCores)
	for g := 0; g < restartGenerations; g++ {
		traffic.next(g)
		pop := make([]ga.Individual, len(traffic.pop))
		for k, in := range traffic.pop {
			pop[k] = ga.Individual{Seq: in.Seq}
		}
		if err := traffic.evaluate(m); err != nil {
			s.close()
			return nil, err
		}
		s.pops = append(s.pops, pop)
		s.cold = append(s.cold, resultsOf(traffic.pop))
	}
	// The ops start from an empty trace cache and count only their own
	// store traffic.
	uarch.ResetTraceCache()
	s.base = s.store.Stats()
	return s, nil
}

func (s *restart) ops() int { return s.n }

func (s *restart) prepare(i int) error {
	s.c.resetTraceCache()
	src := s.pops[i%len(s.pops)]
	s.pop = make([]ga.Individual, len(src))
	for k, in := range src {
		s.pop[k] = ga.Individual{Seq: in.Seq}
	}
	return nil
}

func (s *restart) op(i int) (int, error) {
	end := s.tr.begin("platform.build")
	b, d, err := newGABench(s.reg, s.seed)
	end()
	if err != nil {
		return 0, err
	}
	s.bench, s.dom = b, d
	end = s.tr.begin("ga.evaluate")
	defer end()
	return len(s.pop), ga.EvaluatePopulation(s.pop, traced(b.EMMeasurer(d, gaActiveCores), s.tr, "core.measure_batch"), 1)
}

func (s *restart) after(i int) error {
	s.c.addBatch(s.bench.BatchStats())
	s.c.addSpectra(s.dom)
	if !sameResults(resultsOf(s.pop), s.cold[i%len(s.cold)]) {
		return fmt.Errorf("warm generation %d differs from its cold evaluation", i%len(s.cold))
	}
	return nil
}

func (s *restart) finish() map[int]error { return nil }

func (s *restart) counters() *counters {
	s.c.addTrace(uarch.TraceCacheStats())
	st := s.store.Stats()
	st.Hits -= s.base.Hits
	st.Misses -= s.base.Misses
	s.c.store = &st
	return &s.c
}

// close uninstalls the store from every cache tier and deletes it.
func (s *restart) close() error {
	uarch.SetPersistentStore(nil)
	platform.SetPersistentStore(nil)
	core.SetPersistentStore(nil)
	return os.RemoveAll(s.dir)
}

// campaignConfig is one operating state of the op-campaign rotation: a
// domain with some cores powered (Fig. 13's power gating) and some of
// those running the loop.
type campaignConfig struct {
	platform, domain string
	powered, active  int
}

// The Cortex-A72 runs with one core powered only. With both powered its
// impedance peak is flat-topped (the paper sees 66-72 MHz), and the sweep's
// estimate reads 69.2-70.9 MHz against the model's 66.99 MHz peak, outside
// the check's 5% for about half of the analyzer seeds; see README.md.
var campaignConfigs = []campaignConfig{
	{"juno-r2", "cortex-a72", 1, 1},
	{"juno-r2", "cortex-a53", 4, 1},
	{"juno-r2", "cortex-a53", 3, 1},
	{"juno-r2", "cortex-a53", 2, 1},
	{"juno-r2", "cortex-a53", 1, 1},
	{"amd-desktop", "athlon-ii-x4", 4, 4},
	{"amd-desktop", "athlon-ii-x4", 4, 1},
	{"amd-desktop", "athlon-ii-x4", 2, 1},
}

// campaignTolerance is how far a sweep's resonance estimate may sit from
// the PDN model's impedance peak.
const campaignTolerance = 0.05

// opCampaign: each op is one cold operating-point campaign on a fresh
// platform with an empty trace cache: the fast resonance sweep over every
// DVFS step (core.Bench.SweepBatch) and a V_MIN shmoo of the probe loop
// over a fixed spread of DVFS columns (vmin.Tester.Shmoo). The seed orders
// the ops.
type opCampaign struct {
	n        int
	seed     int64
	reg      *platform.Registry
	order    []int     // config index of each op
	expected []float64 // model resonance per config
	tr       *tracer
	c        counters

	dom   *platform.Domain
	bench *core.Bench
	load  platform.Load
	sweep *core.SweepResult
	pts   []*core.SweepPoint
	shmoo []vmin.ShmooPoint
}

func openOpCampaign(cfg runConfig, tr *tracer) (session, error) {
	uarch.ResetTraceCache()
	reg, err := loadRegistry()
	if err != nil {
		return nil, err
	}
	s := &opCampaign{n: opsFor(cfg.seconds, campaignOpsPerSec), seed: cfg.seed, reg: reg, tr: tr}
	for _, cc := range campaignConfigs {
		_, d, err := campaignDomain(reg, cc)
		if err != nil {
			return nil, err
		}
		m, err := d.Model()
		if err != nil {
			return nil, err
		}
		f, _, err := m.ResonancePeak(core.DefaultBand().Lo, core.DefaultBand().Hi)
		if err != nil {
			return nil, err
		}
		s.expected = append(s.expected, f)
	}
	// Every cycle through the configs runs them in a fresh seed-shuffled order.
	for cycle := 0; len(s.order) < s.n; cycle++ {
		rng := rand.New(rand.NewSource(deriveSeed(cfg.seed, uint64(cycle))))
		s.order = append(s.order, rng.Perm(len(campaignConfigs))...)
	}
	s.order = s.order[:s.n]
	return s, nil
}

func campaignDomain(reg *platform.Registry, cc campaignConfig) (*platform.Platform, *platform.Domain, error) {
	p, err := reg.Build(cc.platform)
	if err != nil {
		return nil, nil, err
	}
	d, err := p.Domain(cc.domain)
	if err != nil {
		return nil, nil, err
	}
	return p, d, d.SetPoweredCores(cc.powered)
}

// shmooColumns spreads campaignShmooCols columns evenly over the domain's
// DVFS steps, so every op on a state does the same work.
func shmooColumns(steps []float64) []float64 {
	k := min(campaignShmooCols, len(steps))
	cols := make([]float64, k)
	for j := range cols {
		cols[j] = steps[j*len(steps)/k]
	}
	return cols
}

func (s *opCampaign) ops() int { return s.n }

func (s *opCampaign) prepare(i int) error {
	s.c.resetTraceCache()
	return nil
}

func (s *opCampaign) op(i int) (int, error) {
	cc := campaignConfigs[s.order[i]]
	end := s.tr.begin("platform.build")
	p, d, err := campaignDomain(s.reg, cc)
	var b *core.Bench
	if err == nil {
		b, err = core.NewBench(p, s.seed)
	}
	end()
	if err != nil {
		return 0, err
	}
	b.Parallelism = 1
	s.dom, s.bench = d, b

	end = s.tr.begin("core.sweep_batch")
	steps := core.SweepClockSteps(d)
	s.pts, err = b.SweepBatch(d, cc.active, steps)
	if err == nil {
		s.sweep, err = core.AssembleSweep(s.pts)
	}
	end()
	if err != nil {
		return 0, err
	}

	end = s.tr.begin("vmin.shmoo")
	defer end()
	probe, err := workload.Probe().Build(d.Spec.Pool())
	if err != nil {
		return 0, err
	}
	s.load = platform.Load{Seq: probe, ActiveCores: cc.active}
	t := vmin.NewTester(d, s.seed)
	t.Parallelism = 1
	cols := shmooColumns(d.ClockSteps())
	if s.shmoo, err = t.Shmoo(s.load, cols); err != nil {
		return 0, err
	}
	return len(steps) + len(cols), nil
}

func (s *opCampaign) after(i int) error {
	d := s.dom
	s.c.addSpectra(d)
	if s.tr != nil {
		s.collectReplay(i)
	}
	want := s.expected[s.order[i]]
	if math.Abs(s.sweep.ResonanceHz-want) > campaignTolerance*want {
		return fmt.Errorf("%s with %d cores powered, %d active: sweep resonance %.2f MHz, model peak %.2f MHz",
			d.Spec.Name, d.PoweredCores(), s.load.ActiveCores, s.sweep.ResonanceHz/1e6, want/1e6)
	}
	nominal := d.Spec.PDN.VNominal
	for _, pt := range s.shmoo {
		if pt.Outcome == vmin.Pass || pt.VminV <= 0 || pt.VminV > nominal {
			return fmt.Errorf("%s: shmoo column %.0f Hz: V_MIN %v V (%v)", d.Spec.Name, pt.ClockHz, pt.VminV, pt.Outcome)
		}
	}
	return nil
}

// collectReplay records a few in-band sweep points and shmoo columns of
// op i for the stage replay.
func (s *opCampaign) collectReplay(i int) {
	d, b := s.dom, s.bench
	var inBand []*core.SweepPoint
	for _, pt := range s.pts {
		if pt != nil {
			inBand = append(inBand, pt)
		}
	}
	halfBand := b.Analyzer.RBWHz + 2/(float64(b.N)*b.Dt)
	for j := 0; j < replayPerSweep && j < len(inBand); j++ {
		pt := inBand[j*len(inBand)/replayPerSweep]
		s.c.measurements = append(s.c.measurements, measurement{
			op: i, d: d, load: s.load, clockHz: pt.ClockHz, supplyV: d.SupplyVolts(),
			powered: d.PoweredCores(), dt: b.Dt, n: b.N, antenna: b.Platform.Antenna,
			analyzer: b.Analyzer, lo: pt.LoopHz - halfBand, hi: pt.LoopHz + halfBand,
			samples: b.Samples, wantDBm: pt.PeakDBm,
		})
	}
	grid := vmin.NewTester(d, s.seed)
	for j := 0; j < replayPerShmoo && j < len(s.shmoo); j++ {
		pt := s.shmoo[j*len(s.shmoo)/replayPerShmoo]
		s.c.columns = append(s.c.columns, ladderColumn{op: i, d: d, load: s.load,
			clockHz: pt.ClockHz, vminV: pt.VminV, dt: grid.Dt, n: grid.N})
	}
}

func (s *opCampaign) finish() map[int]error { return nil }
func (s *opCampaign) close() error          { return nil }

func (s *opCampaign) counters() *counters {
	s.c.addTrace(uarch.TraceCacheStats())
	return &s.c
}
