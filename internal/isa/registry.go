package isa

// The architecture registry opens the Arch space: an architecture and its
// instruction pool are registry entries, not enum cases, so a new ISA (a
// RISC-V in-order pool, a VLIW DSP) is data handed to DefineArch rather
// than a fork of this package.
//
// Identity discipline: the two legacy architectures keep their historical
// small ids (ARM64 = 0, X86 = 1) because those ids are folded — via the
// JSON encoding of platform.Spec — into persistent content-addressed cache
// keys; changing them would orphan every castore entry written before the
// registry existed. Every other architecture derives its id from a stable
// 62-bit FNV-1a hash of its name, so two processes that load the same spec
// file agree on the id (and therefore on every downstream cache key)
// without coordinating registration order.

import (
	"fmt"
	"sync"
)

type archEntry struct {
	name string
	pool *Pool  // nil for interned (pool-less) bindings
	hash uint64 // content hash of the pool definition; 0 when pool-less
}

var (
	archMu      sync.RWMutex
	archsByName = make(map[string]Arch)
	archsByID   = make(map[Arch]*archEntry)
)

func init() {
	mustRegisterBuiltin(ARM64, ARM64Pool())
	mustRegisterBuiltin(X86, X86Pool())
}

func mustRegisterBuiltin(id Arch, pool *Pool) {
	name := builtinArchName(id)
	archsByName[name] = id
	archsByID[id] = &archEntry{name: name, pool: pool, hash: poolContentHash(pool)}
}

// builtinArchName returns the wire name of a legacy enum value ("" for
// non-builtins); it exists so init can name the builtins before the
// registry is populated.
func builtinArchName(a Arch) string {
	switch a {
	case ARM64:
		return "arm64"
	case X86:
		return "x86-64"
	}
	return ""
}

// ValidateArchName rejects names the spec and wire formats cannot carry:
// the lab protocol sends arch names as one space-delimited field, and spec
// files use them as JSON object keys.
func ValidateArchName(name string) error {
	if name == "" {
		return fmt.Errorf("isa: empty architecture name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("isa: architecture name %q: character %q not in [a-z0-9._-]", name, r)
		}
	}
	return nil
}

// archID derives the stable id for an architecture name: the legacy ids
// for the two builtins, a 62-bit FNV-1a of the name for everything else.
func archID(name string) Arch {
	switch name {
	case "arm64":
		return ARM64
	case "x86-64":
		return X86
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	id := Arch(h & 0x3fffffffffffffff)
	if id < 16 { // clear of the legacy enum range
		id += 16
	}
	return id
}

// poolContentHash folds every field of every definition (plus the resource
// counts) so DefineArch can tell an idempotent re-registration from a
// conflicting one.
func poolContentHash(p *Pool) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	mix(fmt.Sprintf("%d/%d/%d", p.IntRegs, p.VecRegs, p.MemSlots))
	for i := range p.Defs {
		d := &p.Defs[i]
		mix(fmt.Sprintf("%s|%d|%d|%d|%d|%b|%d|%d|%t|%d|%t",
			d.Mnemonic, d.Class, d.Unit, d.Latency, d.Block,
			d.Charge, d.RegFile, d.NSrc, d.DestIsSrc, d.Mem, d.NoDest))
	}
	return h
}

// DefineArch registers a named architecture together with its instruction
// pool and returns its stable Arch id. Re-defining a name with an
// identical pool is a no-op returning the existing id; a conflicting
// definition is an error. The returned id is what platform specs carry and
// what persistent cache keys fold, so it must not depend on registration
// order — see archID.
func DefineArch(name string, defs []Def, intRegs, vecRegs, memSlots int) (Arch, error) {
	if err := ValidateArchName(name); err != nil {
		return 0, err
	}
	id := archID(name)
	pool, err := NewPool(id, defs, intRegs, vecRegs, memSlots)
	if err != nil {
		return 0, fmt.Errorf("isa: architecture %q: %w", name, err)
	}
	hash := poolContentHash(pool)

	archMu.Lock()
	defer archMu.Unlock()
	if prev, ok := archsByID[id]; ok {
		if prev.name != name {
			return 0, fmt.Errorf("isa: architecture id collision: %q and %q hash to the same id", name, prev.name)
		}
		if prev.pool == nil {
			// Upgrade an interned binding with its pool.
			prev.pool, prev.hash = pool, hash
			return id, nil
		}
		if prev.hash != hash {
			return 0, fmt.Errorf("isa: architecture %q already registered with a different instruction pool", name)
		}
		return id, nil
	}
	archsByName[name] = id
	archsByID[id] = &archEntry{name: name, pool: pool, hash: hash}
	return id, nil
}

// InternArch binds a name to its Arch id without attaching an instruction
// pool. Capability records received over the wire use it so a workstation
// can reason about a rig's architecture (placement, reporting) even when
// the pool itself has not been loaded locally; any operation that needs to
// assemble instructions still fails until DefineArch supplies the pool.
func InternArch(name string) (Arch, error) {
	if err := ValidateArchName(name); err != nil {
		return 0, err
	}
	id := archID(name)
	archMu.Lock()
	defer archMu.Unlock()
	if prev, ok := archsByID[id]; ok {
		if prev.name != name {
			return 0, fmt.Errorf("isa: architecture id collision: %q and %q hash to the same id", name, prev.name)
		}
		return id, nil
	}
	archsByName[name] = id
	archsByID[id] = &archEntry{name: name}
	return id, nil
}

// archName returns the registered name of an arch ("" if unknown).
func archName(a Arch) string {
	archMu.RLock()
	defer archMu.RUnlock()
	if e, ok := archsByID[a]; ok {
		return e.name
	}
	return ""
}

// lookupArch resolves a registered name.
func lookupArch(name string) (Arch, bool) {
	archMu.RLock()
	defer archMu.RUnlock()
	id, ok := archsByName[name]
	return id, ok
}

// archPool returns the registered pool for an arch (nil if the arch is
// unknown or only interned).
func archPool(a Arch) *Pool {
	archMu.RLock()
	defer archMu.RUnlock()
	if e, ok := archsByID[a]; ok {
		return e.pool
	}
	return nil
}
