// Package cli is the shared wiring of the measurement commands (sweep,
// vmin, characterize, gahunt, repro): one flag vocabulary, one platform
// builder, one backend construction path. Every command gets the same
// universal block — -seed, -j, -v, -remote, -backends, -checkpoint,
// -cpuprofile, -memprofile — plus the per-command flags its profile
// declares, so `-remote ADDR` means exactly the same thing everywhere and
// a new command cannot drift.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/fleet"
	"repro/internal/lab"
	"repro/internal/platform"
	"repro/internal/prof"
	"repro/internal/session"
)

// Spec declares which per-command flags a command carries on top of the
// universal block.
type Spec struct {
	// Platform/domain selection (-platform, -domain).
	Platform        bool
	PlatformDefault string // default for -platform; "" = no default (repro's slot-override semantics)
	DomainDefault   string // default for -domain; "" = platform's first
	// Cores adds -cores (active cores; 0 = all powered unless CoresDefault).
	Cores        bool
	CoresDefault int
	// Samples adds -samples (analyzer averaging; default 30).
	Samples bool
	// Session adds -session (write a JSON session report).
	Session bool
	// SeedDefault is the -seed default (repro historically uses 7).
	SeedDefault int64
}

// Profiles is the flag inventory of every measurement command. The
// flag-parity test in this package walks it, so adding a command here is
// what keeps the inventory honest.
var Profiles = map[string]Spec{
	"sweep":        {Platform: true, PlatformDefault: "juno", Samples: true, Session: true, SeedDefault: 1},
	"vmin":         {Platform: true, PlatformDefault: "juno", Cores: true, Session: true, SeedDefault: 1},
	"characterize": {Platform: true, PlatformDefault: "juno", Cores: true, SeedDefault: 1},
	"gahunt":       {Platform: true, PlatformDefault: "juno", DomainDefault: platform.DomainA72, Cores: true, CoresDefault: 2, Samples: true, Session: true, SeedDefault: 1},
	"repro":        {Platform: true, SeedDefault: 7},
}

// UniversalFlags is the block every command registers.
var UniversalFlags = []string{"seed", "j", "v", "remote", "backends", "checkpoint", "cache-dir", "cpuprofile", "memprofile"}

// App is one command's parsed flag set plus the construction helpers that
// turn it into a Backend.
type App struct {
	Name string
	Spec Spec

	Seed       *int64
	Jobs       *int
	Verbose    *bool
	Remote     *string
	Backends   *string
	Checkpoint *string
	CacheDir   *string
	CPUProfile *string
	MemProfile *string

	Platform   *string // nil unless Spec.Platform
	DomainFlag *string
	Cores      *int    // nil unless Spec.Cores
	Samples    *int    // nil unless Spec.Samples
	Session    *string // nil unless Spec.Session

	// BenchSamples overrides the bench's analyzer averaging when the
	// command has no -samples flag (characterize -quick). Set it before
	// calling Backend.
	BenchSamples int

	fs     *flag.FlagSet
	cache  *castore.Store
	stderr io.Writer // warnings
}

// New registers the command's flag profile on fs (flag.CommandLine in the
// real commands, a scratch set in tests). The command name must appear in
// Profiles.
func New(name string, fs *flag.FlagSet) *App {
	spec, ok := Profiles[name]
	if !ok {
		panic(fmt.Sprintf("cli: no flag profile for command %q", name))
	}
	a := &App{Name: name, Spec: spec, fs: fs, stderr: os.Stderr}
	a.Seed = fs.Int64("seed", spec.SeedDefault, "random seed")
	a.Jobs = fs.Int("j", runtime.NumCPU(), "parallel evaluations (results are identical at any setting)")
	a.Verbose = fs.Bool("v", false, "print evaluation statistics (transport counters when -remote, cache counters otherwise)")
	a.Remote = fs.String("remote", "", "labtarget address for remote measurement (host:port)")
	a.Backends = fs.String("backends", "", "comma-separated rig fleet: labtarget addresses and/or \"local\" (host1:port,host2:port,local)")
	a.Checkpoint = fs.String("checkpoint", "", "journal completed fleet shards to this file; a restarted campaign replays them instead of re-measuring")
	a.CacheDir = fs.String("cache-dir", os.Getenv("REPRO_CACHE_DIR"),
		"directory of the persistent result cache shared across runs and processes (default $REPRO_CACHE_DIR; empty disables)")
	a.CPUProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
	a.MemProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	if spec.Platform {
		platformHelp := "platform: " + strings.Join(platform.BuiltinNames(), ", ") + ", or a .json platform spec"
		if spec.PlatformDefault == "" {
			platformHelp = "substitute this platform (registry name or .json spec) for the experiment slot its ISA matches"
		}
		a.Platform = fs.String("platform", spec.PlatformDefault, platformHelp)
		domainHelp := "voltage domain (defaults to the platform's first)"
		if spec.DomainDefault != "" {
			domainHelp = "voltage domain"
		}
		a.DomainFlag = fs.String("domain", spec.DomainDefault, domainHelp)
	}
	if spec.Cores {
		coresHelp := "active cores (default: all powered)"
		if spec.CoresDefault > 0 {
			coresHelp = "active cores"
		}
		a.Cores = fs.Int("cores", spec.CoresDefault, coresHelp)
	}
	if spec.Samples {
		a.Samples = fs.Int("samples", 30, "analyzer sweeps averaged per measurement")
	}
	if spec.Session {
		a.Session = fs.String("session", "", "write a JSON session report to this file")
	}
	return a
}

// StartProfiling starts the pprof writers the universal flags request;
// call the returned stop function at exit.
func (a *App) StartProfiling() (func(), error) {
	return prof.Start(*a.CPUProfile, *a.MemProfile)
}

// BuildPlatform constructs a platform from its CLI name: a spec-registry
// entry (or one of the historical aliases juno/amd/gpu), or a .json
// platform-spec file of any supported schema version.
func BuildPlatform(name string) (*platform.Platform, error) {
	return platform.Resolve(name)
}

// InstallCache opens the persistent result store named by -cache-dir (or
// $REPRO_CACHE_DIR) and installs it as the disk tier of the bench
// measurement memo, so this process warm-starts from the finished
// measurements of earlier runs and co-located processes share each
// other's work. A no-op when no directory is configured; idempotent
// otherwise. Backend calls it, and commands that construct their own
// benches (repro) call it before building an experiment context.
func (a *App) InstallCache() (*castore.Store, error) {
	if a.cache != nil {
		return a.cache, nil
	}
	s, err := InstallCacheDir(*a.CacheDir)
	if err != nil {
		return nil, err
	}
	a.cache = s
	return s, nil
}

// InstallCacheDir opens a persistent store at dir and installs it under
// the bench measurement memo; an empty dir is a no-op returning nil.
// Shared by App.InstallCache and commands with their own flag sets
// (labtarget), so every entry point installs the tier the same way.
func InstallCacheDir(dir string) (*castore.Store, error) {
	dir = strings.TrimSpace(dir)
	if dir == "" {
		return nil, nil
	}
	s, err := castore.Open(dir, castore.Options{})
	if err != nil {
		return nil, fmt.Errorf("-cache-dir: %w", err)
	}
	core.SetPersistentStore(s)
	return s, nil
}

// platformSet reports whether -platform was given explicitly.
func (a *App) platformSet() bool {
	set := false
	a.fs.Visit(func(f *flag.Flag) {
		if f.Name == "platform" {
			set = true
		}
	})
	return set
}

// Backend builds the measurement backend the flags select: a local bench
// seeded by -seed, a pool of -j sessions against a lab daemon (with
// -remote), or a fleet of rigs (with -backends). An explicit -platform
// combined with -remote is verified against the daemon's identity, so
// pointing a juno campaign at an amd daemon fails up front instead of
// producing a confusing report.
func (a *App) Backend() (backend.Backend, error) {
	if _, err := a.InstallCache(); err != nil {
		return nil, err
	}
	if *a.Backends != "" {
		if *a.Remote != "" {
			return nil, fmt.Errorf("-remote and -backends are mutually exclusive; list the daemon in -backends instead")
		}
		return a.fleetBackend()
	}
	if *a.Checkpoint != "" {
		return nil, fmt.Errorf("-checkpoint needs a fleet (-backends)")
	}
	if *a.Remote != "" {
		be, err := backend.NewRemote(*a.Remote, *a.Jobs, lab.Options{})
		if err != nil {
			return nil, err
		}
		a.warnRigSeed(*a.Remote, be)
		if s := a.samples(); s > 0 {
			be.Samples = s
		}
		if a.Platform != nil && a.platformSet() {
			p, err := BuildPlatform(*a.Platform)
			if err != nil {
				be.Close()
				return nil, err
			}
			if p.Name != be.PlatformName() {
				be.Close()
				return nil, fmt.Errorf("remote daemon at %s serves %s, but -platform %s (%s) was requested",
					*a.Remote, be.PlatformName(), *a.Platform, p.Name)
			}
		}
		return be, nil
	}
	platName := "juno"
	if a.Platform != nil && *a.Platform != "" {
		platName = *a.Platform
	}
	p, err := BuildPlatform(platName)
	if err != nil {
		return nil, err
	}
	bench, err := core.NewBench(p, *a.Seed)
	if err != nil {
		return nil, err
	}
	if s := a.samples(); s > 0 {
		bench.Samples = s
	}
	bench.Parallelism = *a.Jobs
	return backend.NewLocal(bench)
}

// fleetBackend builds one rig per -backends entry — "local" is a bench
// seeded by -seed in this process, anything else a labtarget address —
// and hands them to the fleet coordinator. The campaign salt folds the
// seed and platform choice, so checkpoints journaled under one seed never
// replay into a run with another.
func (a *App) fleetBackend() (backend.Backend, error) {
	var rigs []fleet.Rig
	closeAll := func() {
		for _, r := range rigs {
			r.Backend.Close()
		}
	}
	platName := "juno"
	if a.Platform != nil && *a.Platform != "" {
		platName = *a.Platform
	}
	for _, entry := range strings.Split(*a.Backends, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if entry == "local" {
			p, err := BuildPlatform(platName)
			if err != nil {
				closeAll()
				return nil, err
			}
			bench, err := core.NewBench(p, *a.Seed)
			if err != nil {
				closeAll()
				return nil, err
			}
			if s := a.samples(); s > 0 {
				bench.Samples = s
			}
			bench.Parallelism = *a.Jobs
			be, err := backend.NewLocal(bench)
			if err != nil {
				closeAll()
				return nil, err
			}
			rigs = append(rigs, fleet.Rig{Name: "local", Backend: be})
			continue
		}
		be, err := backend.NewRemote(entry, *a.Jobs, lab.Options{})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("rig %s: %w", entry, err)
		}
		a.warnRigSeed(entry, be)
		if s := a.samples(); s > 0 {
			be.Samples = s
		}
		rigs = append(rigs, fleet.Rig{Name: entry, Backend: be})
	}
	if len(rigs) == 0 {
		return nil, fmt.Errorf("-backends lists no rigs")
	}
	opts := fleet.Options{Slots: *a.Jobs, Salt: fleetSalt(*a.Seed, platName)}
	if *a.Checkpoint != "" {
		ckpt, err := fleet.OpenCheckpoint(*a.Checkpoint)
		if err != nil {
			closeAll()
			return nil, err
		}
		opts.Checkpoint = ckpt
	}
	f, err := fleet.New(rigs, opts)
	if err != nil {
		closeAll()
		if opts.Checkpoint != nil {
			opts.Checkpoint.Close()
		}
		return nil, err
	}
	return f, nil
}

// warnRigSeed prints a one-line stderr warning when a rig's analyzer seed
// (its labtarget -seed) differs from -seed: the rig's measurements then
// differ from a local run with the same flags.
func (a *App) warnRigSeed(addr string, be *backend.Remote) {
	if s := be.Seed(); s != *a.Seed {
		fmt.Fprintf(a.stderr, "%s: warning: rig %s measures with seed %d, not -seed %d; results will differ from a local run\n",
			a.Name, addr, s, *a.Seed)
	}
}

// fleetSalt derives the campaign-key salt from the run identity the
// backend surface cannot observe.
func fleetSalt(seed int64, platName string) uint64 {
	h := detrand.NewHash()
	h.Uint64(uint64(seed))
	h.String(platName)
	return h.Sum()
}

// samples resolves the effective analyzer averaging override: the
// -samples flag when present, else BenchSamples, else 0 (backend
// default).
func (a *App) samples() int {
	if a.Samples != nil {
		return *a.Samples
	}
	return a.BenchSamples
}

// Domain resolves the target domain: the -domain flag, or the backend's
// first domain. The choice is validated against the backend's capability
// query.
func (a *App) Domain(be backend.Backend) (string, error) {
	name := ""
	if a.DomainFlag != nil {
		name = *a.DomainFlag
	}
	if name == "" {
		doms := be.Domains()
		if len(doms) == 0 {
			return "", fmt.Errorf("backend reports no domains")
		}
		name = doms[0]
	}
	if _, err := be.Caps(name); err != nil {
		return "", err
	}
	return name, nil
}

// ActiveCores resolves the -cores flag: an explicit value passes through,
// 0 means every currently powered core.
func (a *App) ActiveCores(be backend.Backend, domain string) (int, error) {
	if a.Cores != nil && *a.Cores > 0 {
		return *a.Cores, nil
	}
	st, err := be.State(domain)
	if err != nil {
		return 0, err
	}
	return st.PoweredCores, nil
}

// MaybePrintStats prints the -v diagnostics: the rig's evaluation-cache
// counters for a local backend, the transport counters for a remote one.
func (a *App) MaybePrintStats(be backend.Backend, domain string) {
	if !*a.Verbose {
		return
	}
	if r, ok := be.(*backend.Remote); ok {
		fmt.Println(r.TransportStats().String())
		return
	}
	stats, err := be.EvalStats(domain)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: stats: %v\n", a.Name, err)
		return
	}
	fmt.Println(stats)
}

// MaybePrintStatsEach prints the -v diagnostics of a command that drives
// several backends in one process (repro's experiment platforms): each
// backend's own counters under its platform name, then once the
// process-wide lines its local benches share (core.ProcessStats), which
// would otherwise repeat under every backend.
func (a *App) MaybePrintStatsEach(bes []backend.Backend) {
	if !*a.Verbose {
		return
	}
	if err := writeStatsEach(os.Stdout, bes); err != nil {
		fmt.Fprintf(os.Stderr, "%s: stats: %v\n", a.Name, err)
	}
}

// writeStatsEach renders MaybePrintStatsEach's text: a remote rig's
// transport counters, a local bench's batch line, any other backend's
// EvalStats for its first domain.
func writeStatsEach(w io.Writer, bes []backend.Backend) error {
	local := false
	for _, be := range bes {
		var stats string
		switch be := be.(type) {
		case *backend.Remote:
			stats = be.TransportStats().String()
		case *backend.Local:
			local = true
			stats = be.Bench().BatchStats().String()
		default:
			doms := be.Domains()
			if len(doms) == 0 {
				continue
			}
			var err error
			if stats, err = be.EvalStats(doms[0]); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%s: %s\n", be.PlatformName(), stats)
	}
	if local {
		fmt.Fprintln(w, core.ProcessStats())
	}
	return nil
}

// NewSession starts a session report for the domain's current state as
// the backend observes it.
func (a *App) NewSession(be backend.Backend, domain string, now time.Time) (*session.Report, error) {
	return session.New(be, domain, now)
}

// SaveSession writes a session report to the -session file when one was
// requested; it is a no-op otherwise.
func (a *App) SaveSession(rep *session.Report) error {
	if a.Session == nil || *a.Session == "" {
		return nil
	}
	f, err := os.Create(*a.Session)
	if err != nil {
		return err
	}
	if err := rep.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("session report written to %s\n", *a.Session)
	return nil
}

// RemoteBackends dials a comma-separated list of labtarget addresses and
// keys the resulting backends by the platform each daemon serves (repro
// drives multiple rigs — one per platform). The returned closer shuts
// down every pool.
func RemoteBackends(addrs string, jobs int) (map[string]backend.Backend, func(), error) {
	out := make(map[string]backend.Backend)
	closeAll := func() {
		for _, be := range out {
			be.Close()
		}
	}
	for _, addr := range strings.Split(addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		be, err := backend.NewRemote(addr, jobs, lab.Options{})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		name := be.PlatformName()
		if prev, dup := out[name]; dup {
			be.Close()
			closeAll()
			_ = prev
			return nil, nil, fmt.Errorf("two daemons serve platform %s (%s and %s)", name, addr, addrs)
		}
		out[name] = be
	}
	return out, closeAll, nil
}

// Fatal prints a command-prefixed error and exits.
func (a *App) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
	os.Exit(1)
}
