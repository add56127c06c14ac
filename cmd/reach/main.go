// Command reach lists the non-test functions under internal/ that no
// program links. It builds every cmd/ and examples/ program and the
// perfbench driver with the linker's dependency dump, matches the symbols
// the linker kept against the func declarations of the non-test files
// under internal/, and prints each declared function no program reaches.
// An entry of the allowlist (cmd/reach/allow.txt) excuses one such
// function, with its reason. Run it from the repository root:
//
//	go run ./cmd/reach
//
// It exits non-zero when it prints an unreached function missing from the
// allowlist, or a stale entry: one whose function is gone or now reached.
//
// What it cannot see is a dead body behind a live interface method. Once
// any program calls a method through an interface, the linker keeps that
// method on every type converted to the interface, so an implementation
// that no program routes the call to (a forwarding wrapper that never
// serves it, say) passes. A method no program calls through any interface
// is still reported, on every implementation.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// reasons are the allowlist's reason kinds. A facade function is named by
// the root package's api.go or extensions.go; an oracle is a reference or
// fixture that tests of another package use, which an export_test.go
// cannot serve; an interface method satisfies an interface whose method
// no program calls.
var reasons = map[string]bool{"facade": true, "oracle": true, "interface": true}

const allowPath = "cmd/reach/allow.txt"

func main() {
	decl, err := declared("internal")
	if err != nil {
		fatal(err)
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		fatal(err)
	}
	reached := map[string]bool{}
	if err := link(reached, ".", nil, "./cmd/...", "./examples/..."); err != nil {
		fatal(err)
	}
	// perfbench is a nested module; build it with the settings of its run.sh.
	bench := []string{"GOFLAGS=-mod=readonly", "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off"}
	if err := link(reached, "perfbench", bench, "."); err != nil {
		fatal(err)
	}
	if report(os.Stdout, decl, reached, allow, allowPath) {
		os.Exit(1)
	}
}

// link builds pkgs in dir with the linker's dependency dump and marks the
// keys of every symbol the linker kept. Other output (build errors) passes
// through to stderr.
func link(reached map[string]bool, dir string, env []string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep"}, pkgs...)...)
	cmd.Dir, cmd.Env = dir, append(os.Environ(), env...)
	out, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			if !strings.HasPrefix(sc.Text(), "# ") {
				fmt.Fprintln(os.Stderr, sc.Text())
			}
			continue
		}
		for _, k := range append(keys(from), keys(to)...) {
			reached[k] = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go build %s in %s: %v", strings.Join(pkgs, " "), dir, err)
	}
	return nil
}

// aux are the suffixes of a function's compiler-made data symbols. The
// linker merges such symbols by content, so one function's symbol may stand
// for another's: they say nothing about which function is reached.
var aux = []string{".arginfo0", ".arginfo1", ".argliveinfo", ".args_stackmap", ".opendefer", ".stkobj", ".wrapinfo"}

// keys returns the declaration keys a linker symbol may stand for: "pkg.F"
// for a function and "pkg.T.M" for a method, pkg relative to internal/. A
// closure or method value maps to its function, a generic instantiation to
// its declaration, (*T).M and T.M to one key. Symbols outside internal/ and
// per-function data symbols have none.
func keys(sym string) []string {
	s, ok := strings.CutPrefix(sym, "repro/internal/")
	if !ok {
		return nil
	}
	for _, a := range aux {
		if strings.HasSuffix(s, a) {
			return nil
		}
	}
	s = stripBrackets(s)
	slash := strings.LastIndexByte(s, '/') + 1
	pkg, rest, ok := strings.Cut(s[slash:], ".")
	if !ok || strings.HasPrefix(rest, ".") {
		return nil // not a function, or compiler-made data such as pkg..dict.F
	}
	parts := strings.Split(strings.NewReplacer("(*", "", ")", "", "-fm", "").Replace(rest), ".")
	ks := []string{s[:slash] + pkg + "." + parts[0]}
	if len(parts) > 1 {
		ks = append(ks, ks[0]+"."+parts[1])
	}
	return ks
}

// stripBrackets removes every bracketed segment of s, such as a generic
// instantiation's shape list, by bracket depth. Quoted strings inside a
// segment (struct tags of a shape) may hold brackets and escaped quotes.
func stripBrackets(s string) string {
	var b strings.Builder
	depth, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quoted && c == '\\':
			i++
		case quoted:
			quoted = c != '"'
		case depth > 0 && c == '"':
			quoted = true
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// declared returns the positions of the func declarations (init functions
// excepted) in the non-test Go files under root that build for the host,
// by key.
func declared(root string) (map[string]token.Position, error) {
	fset := token.NewFileSet()
	out := map[string]token.Position{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || fd.Recv == nil && fd.Name.Name == "init" {
				continue
			}
			key := filepath.ToSlash(pkg) + "."
			if fd.Recv != nil {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			out[key+fd.Name.Name] = fset.Position(fd.Pos())
		}
		return nil
	})
	return out, err
}

// recvName returns T for a receiver of type T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e.(*ast.Ident).Name
		}
	}
}

// entry is one allowlist line: its reason and its line number.
type entry struct {
	reason string
	line   int
}

// readAllow reads an allowlist: one "key kind: reason" entry per line, kind
// one of reasons; blank lines and lines starting with # are skipped.
func readAllow(path string) (map[string]entry, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]entry{}
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		kind, text, _ := strings.Cut(reason, ":")
		if _, dup := out[key]; dup || !reasons[kind] || strings.TrimSpace(text) == "" {
			return nil, fmt.Errorf("%s:%d: %q: want one \"key kind: reason\" line per key, kind one of facade, oracle, interface", path, i+1, line)
		}
		out[key] = entry{reason, i + 1}
	}
	return out, nil
}

// report prints every declared function reached lacks: an allowlisted one
// with its reason, any other as a finding at its position. It then prints
// each stale allowlist entry, one whose function is not declared or is
// reached, and returns whether it printed a finding or a stale entry.
func report(w io.Writer, decl map[string]token.Position, reached map[string]bool, allow map[string]entry, allowPath string) (failed bool) {
	for _, k := range sortedKeys(decl) {
		if reached[k] {
			continue
		}
		if e, ok := allow[k]; ok {
			fmt.Fprintf(w, "allowed %s %s\n", k, e.reason)
		} else {
			fmt.Fprintf(w, "%s:%d: %s is reached by no program\n", decl[k].Filename, decl[k].Line, k)
			failed = true
		}
	}
	for _, k := range sortedKeys(allow) {
		why := ""
		if _, ok := decl[k]; !ok {
			why = "is not declared"
		} else if reached[k] {
			why = "is reached"
		}
		if why != "" {
			fmt.Fprintf(w, "%s:%d: stale entry: %s %s\n", allowPath, allow[k].line, k, why)
			failed = true
		}
	}
	return failed
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reach:", err)
	os.Exit(2)
}
