package cli

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/platform"
)

// flagNames collects the registered flag names of a set.
func flagNames(fs *flag.FlagSet) map[string]*flag.Flag {
	out := make(map[string]*flag.Flag)
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f })
	return out
}

// TestFlagInventory walks every command profile and checks that the
// universal block is registered on all of them and the per-command flags
// appear exactly when the profile declares them. This is the drift guard:
// a command that grows a private -remote or loses -j fails here.
func TestFlagInventory(t *testing.T) {
	for name, spec := range Profiles {
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			app := New(name, fs)
			flags := flagNames(fs)

			for _, u := range UniversalFlags {
				if _, ok := flags[u]; !ok {
					t.Errorf("%s is missing universal flag -%s", name, u)
				}
			}
			conditional := map[string]bool{
				"platform": spec.Platform,
				"domain":   spec.Platform,
				"cores":    spec.Cores,
				"samples":  spec.Samples,
				"session":  spec.Session,
			}
			for fname, want := range conditional {
				if _, got := flags[fname]; got != want {
					t.Errorf("%s: -%s registered=%v, profile says %v", name, fname, got, want)
				}
			}

			if got := flags["seed"].DefValue; got != strconv.FormatInt(spec.SeedDefault, 10) {
				t.Errorf("%s: -seed default %s, want %d", name, got, spec.SeedDefault)
			}
			if spec.Cores {
				if got := flags["cores"].DefValue; got != strconv.Itoa(spec.CoresDefault) {
					t.Errorf("%s: -cores default %s, want %d", name, got, spec.CoresDefault)
				}
			}
			if spec.Platform {
				if got := flags["domain"].DefValue; got != spec.DomainDefault {
					t.Errorf("%s: -domain default %q, want %q", name, got, spec.DomainDefault)
				}
			}

			// The App handles mirror the registration.
			if app.Seed == nil || app.Jobs == nil || app.Verbose == nil ||
				app.Remote == nil || app.Backends == nil || app.Checkpoint == nil ||
				app.CacheDir == nil || app.CPUProfile == nil || app.MemProfile == nil {
				t.Errorf("%s: universal flag pointer is nil", name)
			}
			if (app.Platform != nil) != spec.Platform || (app.Cores != nil) != spec.Cores ||
				(app.Samples != nil) != spec.Samples || (app.Session != nil) != spec.Session {
				t.Errorf("%s: App pointers disagree with profile %+v", name, spec)
			}
		})
	}
}

// TestProfileDefaults pins the command-specific defaults users depend on.
func TestProfileDefaults(t *testing.T) {
	if Profiles["repro"].SeedDefault != 7 {
		t.Error("repro's historical -seed default is 7")
	}
	g := Profiles["gahunt"]
	if g.DomainDefault != platform.DomainA72 || g.CoresDefault != 2 {
		t.Errorf("gahunt defaults drifted: %+v", g)
	}
	for _, name := range []string{"sweep", "vmin", "characterize", "gahunt"} {
		if !Profiles[name].Platform {
			t.Errorf("%s must carry -platform/-domain", name)
		}
	}
}

// TestNewPanicsOnUnknownCommand: a command not in Profiles is a programming
// error, caught at startup.
func TestNewPanicsOnUnknownCommand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(\"nope\") did not panic")
		}
	}()
	New("nope", flag.NewFlagSet("nope", flag.ContinueOnError))
}

// TestBuildPlatform covers the CLI platform names.
func TestBuildPlatform(t *testing.T) {
	for name, want := range map[string]string{"juno": "juno-r2", "amd": "amd-desktop", "gpu": "gpu-card"} {
		p, err := BuildPlatform(name)
		if err != nil {
			t.Fatalf("BuildPlatform(%q): %v", name, err)
		}
		if p.Name != want {
			t.Errorf("BuildPlatform(%q).Name = %q, want %q", name, p.Name, want)
		}
	}
	if _, err := BuildPlatform("vax"); err == nil {
		t.Error("unknown platform accepted")
	}
}

// TestHelloSeedWarning: a rig whose analyzer seed differs from -seed
// measures differently from the local run the flags describe, so -remote
// and -backends warn about it on one stderr line, and stay quiet when the
// seeds agree.
func TestHelloSeedWarning(t *testing.T) {
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBench(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := lab.NewServer(b)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { _ = srv.Shutdown() })
	addr := ln.Addr().String()

	for _, c := range []struct {
		flag, seed string
		warn       bool
	}{
		{"-remote", "5", true},
		{"-remote", "3", false},
		{"-backends", "5", true},
		{"-backends", "3", false},
	} {
		fs := flag.NewFlagSet("gahunt", flag.ContinueOnError)
		a := New("gahunt", fs)
		var stderr bytes.Buffer
		a.stderr = &stderr
		if err := fs.Parse([]string{c.flag, addr, "-seed", c.seed, "-j", "1"}); err != nil {
			t.Fatal(err)
		}
		be, err := a.Backend()
		if err != nil {
			t.Fatal(err)
		}
		be.Close()
		got := stderr.String()
		if !c.warn {
			if got != "" {
				t.Errorf("%s with matching seed warned: %q", c.flag, got)
			}
			continue
		}
		want := fmt.Sprintf("gahunt: warning: rig %s measures with seed 3, not -seed 5; results will differ from a local run\n", addr)
		if got != want {
			t.Errorf("%s -seed 5: stderr %q, want %q", c.flag, got, want)
		}
	}
}

// TestStatsEachPrintsProcessLinesOnce: a command driving two local
// benches prints each bench's batch line under its platform name and the
// process-wide lines (steady-state extrapolation, the one installed
// persistent store) once, not once per bench.
func TestStatsEachPrintsProcessLinesOnce(t *testing.T) {
	store, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := core.SetPersistentStore(store)
	t.Cleanup(func() { core.SetPersistentStore(prev) })
	var bes []backend.Backend
	for _, build := range []func() (*platform.Platform, error){platform.JunoR2, platform.AMDDesktop} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.NewBench(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		be, err := backend.NewLocal(b)
		if err != nil {
			t.Fatal(err)
		}
		bes = append(bes, be)
	}
	var out bytes.Buffer
	if err := writeStatsEach(&out, bes); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for line, want := range map[string]int{
		"persistent cache:":          1,
		"steady-state extrapolation": 1,
		"juno-r2: batch eval:":       1,
		"amd-desktop: batch eval:":   1,
	} {
		if n := strings.Count(got, line); n != want {
			t.Errorf("%q appears %d times, want %d:\n%s", line, n, want, got)
		}
	}
}
