package platform

// The platform registry replaces the hard-wired board constructors: every
// built-in platform is a versioned spec file embedded at build time and
// loaded through the same strict decoder a user's -platform file goes
// through, so "built-in" means nothing more than "shipped in the binary".
// The chip matrix is data; adding a platform is a spec file, not a fork of
// this package (see DESIGN.md §17 and the README walkthrough).

import (
	"embed"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

//go:embed specs/*.json
var builtinSpecs embed.FS

// Registry holds named platform specs and builds fresh Platform instances
// from them (domains carry mutable operating-point state, so every Build
// returns an independent platform, exactly like the old constructors).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
	aliases map[string]string
}

type regEntry struct {
	src  []byte
	file *File
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*regEntry),
		aliases: make(map[string]string),
	}
}

// RegisterSpec parses, validates and stores a spec file, keyed by the
// platform name the file declares. The spec is proven constructible once
// at registration (including a throwaway domain build per entry), so
// Build can only fail for a name that was never registered.
func (r *Registry) RegisterSpec(src []byte) (string, error) {
	f, err := ParsePlatformSpec(src)
	if err != nil {
		return "", err
	}
	if _, err := f.Build(); err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[f.Name]; dup {
		return "", fmt.Errorf("platform: registry already has %q", f.Name)
	}
	if _, dup := r.aliases[f.Name]; dup {
		return "", fmt.Errorf("platform: registry name %q collides with an alias", f.Name)
	}
	src = append([]byte(nil), src...)
	r.entries[f.Name] = &regEntry{src: src, file: f}
	return f.Name, nil
}

// Alias makes alias resolve to an already-registered canonical name (the
// CLI's historical short names: juno, amd, gpu).
func (r *Registry) Alias(alias, canonical string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[canonical]; !ok {
		return fmt.Errorf("platform: alias %q targets unregistered %q", alias, canonical)
	}
	if _, dup := r.entries[alias]; dup {
		return fmt.Errorf("platform: alias %q collides with a registered platform", alias)
	}
	r.aliases[alias] = canonical
	return nil
}

// resolve maps a name or alias to its entry.
func (r *Registry) resolve(name string) (*regEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if canon, ok := r.aliases[name]; ok {
		name = canon
	}
	e, ok := r.entries[name]
	return e, ok
}

// Has reports whether name (or an alias of it) is registered.
func (r *Registry) Has(name string) bool {
	_, ok := r.resolve(name)
	return ok
}

// Names lists the canonical registered platform names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Source returns the spec file bytes a platform was registered from.
func (r *Registry) Source(name string) ([]byte, error) {
	e, ok := r.resolve(name)
	if !ok {
		return nil, fmt.Errorf("platform: registry has no %q", name)
	}
	return append([]byte(nil), e.src...), nil
}

// Build constructs a fresh platform from a registered spec.
func (r *Registry) Build(name string) (*Platform, error) {
	e, ok := r.resolve(name)
	if !ok {
		return nil, fmt.Errorf("platform: registry has no %q (have %s)", name, strings.Join(r.Names(), ", "))
	}
	return e.file.Build()
}

var (
	builtinOnce sync.Once
	builtinReg  *Registry
	builtinErr  error
)

// Builtin returns the registry of embedded platform specs. The embedded
// files are compiled into the binary and validated here; a corrupt one is
// a build defect, so failure panics rather than limping on without the
// chip matrix.
func Builtin() *Registry {
	builtinOnce.Do(func() {
		r := NewRegistry()
		names, err := builtinSpecs.ReadDir("specs")
		if err != nil {
			builtinErr = err
			return
		}
		for _, de := range names {
			src, err := builtinSpecs.ReadFile("specs/" + de.Name())
			if err != nil {
				builtinErr = fmt.Errorf("embedded spec %s: %w", de.Name(), err)
				return
			}
			if _, err := r.RegisterSpec(src); err != nil {
				builtinErr = fmt.Errorf("embedded spec %s: %w", de.Name(), err)
				return
			}
		}
		for alias, canon := range map[string]string{
			"juno": "juno-r2",
			"amd":  "amd-desktop",
			"gpu":  "gpu-card",
		} {
			if err := r.Alias(alias, canon); err != nil {
				builtinErr = err
				return
			}
		}
		builtinReg = r
	})
	if builtinErr != nil {
		panic("platform: built-in spec registry invalid: " + builtinErr.Error())
	}
	return builtinReg
}

// Build constructs a fresh platform from the built-in registry.
func Build(name string) (*Platform, error) { return Builtin().Build(name) }

// BuiltinNames lists the built-in platforms.
func BuiltinNames() []string { return Builtin().Names() }

// Resolve builds a platform from a CLI -platform value: a registry name
// (or alias), or the path of a .json spec file of any supported schema
// version. Every entry point — the five commands, labtarget, the
// experiment suite — funnels through here, so "-platform X" means the
// same thing everywhere.
func Resolve(name string) (*Platform, error) {
	if Builtin().Has(name) {
		return Build(name)
	}
	if strings.HasSuffix(name, ".json") {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		p, err := LoadPlatformJSON(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown platform %q (want %s, or a .json spec file)",
		name, strings.Join(BuiltinNames(), ", "))
}

// Domain names on the built-in platforms.
const (
	DomainA72    = "cortex-a72"
	DomainA53    = "cortex-a53"
	DomainAthlon = "athlon-ii-x4"
)

// JunoR2 builds the ARM Juno R2 big.LITTLE platform of Table 1 from its
// embedded spec.
func JunoR2() (*Platform, error) { return Build("juno-r2") }

// AMDDesktop builds the Athlon II X4 645 desktop platform of Table 1 from
// its embedded spec.
func AMDDesktop() (*Platform, error) { return Build("amd-desktop") }

// GPUCard builds the discrete-GPU platform (one rail feeding eight SMs,
// no voltage visibility) from its embedded spec.
func GPUCard() (*Platform, error) { return Build("gpu-card") }
