package nocalert

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The dead-code gate (`make deadcode`, deadcode_link_test.go) holds every
// function and method declared in a non-test file under internal/ to one
// rule: some main package of the module (cmd/ or bench) links it, or
// testdata/deadcode.allow names it with the reason it stays. This file is
// the checker; its own tests below run it on small fake dependency graphs,
// so they need no linker and run with the rest of the suite.

// deadcodeDecl is one declared function or method: its symbol in the
// linker's spelling after linkerName, and where it is declared.
type deadcodeDecl struct {
	sym, pos string
}

// linkerName maps one symbol of `go build -ldflags=-dumpdep` output to the
// spelling declarations are compared in. Two linker quirks are undone:
// a generic instantiation "F[go.shape.int]" is F, and a method the
// linker names "(*T).M" — the pointer wrapper of a value-receiver method,
// or a pointer-receiver method — is T.M.
func linkerName(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s = b.String()
	if i := strings.Index(s, ".(*"); i >= 0 {
		if j := strings.Index(s[i:], ")"); j >= 0 {
			s = s[:i+1] + s[i+3:i+j] + s[i+j+1:]
		}
	}
	return s
}

// parseDumpdep adds every symbol named on either side of a dumpdep edge
// ("from -> to") to linked.
func parseDumpdep(out []byte, linked map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		linked[linkerName(from)] = true
		linked[linkerName(to)] = true
	}
}

// scanDecls returns the functions and methods declared in the non-test Go
// files of dir and of every directory below it, named as package path
// modPath/<dir relative to root> plus "." plus F or T.M. init functions are
// left out: nothing calls them by name.
func scanDecls(root, modPath, dir string) ([]deadcodeDecl, error) {
	var decls []deadcodeDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := modPath + "/" + filepath.ToSlash(rel)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			sym := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				sym = pkg + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			p := fset.Position(fn.Pos())
			relFile, _ := filepath.Rel(root, p.Filename)
			decls = append(decls, deadcodeDecl{sym, fmt.Sprintf("%s:%d", filepath.ToSlash(relFile), p.Line)})
		}
		return nil
	})
	return decls, err
}

// receiverType names a method's receiver type without its pointer or type
// parameters: "*Ring[T]" is Ring.
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		default:
			return e.(*ast.Ident).Name
		}
	}
}

// parseAllowlist reads the allowlist: one symbol a line, in linkerName's
// spelling, then the reason it stays although no binary links it. Blank
// lines and lines starting with # are comments. A line without a reason,
// or a symbol listed twice, is a problem.
func parseAllowlist(data []byte) (map[string]string, []string) {
	allow := map[string]string{}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case reason == "":
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s gives no reason", i+1, sym))
		case allow[sym] != "":
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s is listed twice", i+1, sym))
		default:
			allow[sym] = reason
		}
	}
	return allow, problems
}

// checkDeadcode returns every declaration that is neither linked nor
// allowlisted, in declaration order, then every allowlist entry that has
// gone stale, sorted: its symbol is linked after all, or no longer
// declared.
func checkDeadcode(decls []deadcodeDecl, linked map[string]bool, allow map[string]string) []string {
	var problems, stale []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.sym] = true
		if !linked[d.sym] && allow[d.sym] == "" {
			problems = append(problems, fmt.Sprintf("%s: %s is linked into no binary; delete it, or allowlist it with a reason", d.pos, d.sym))
		}
	}
	for sym := range allow {
		switch {
		case linked[sym]:
			stale = append(stale, fmt.Sprintf("allowlist: %s is linked; drop its line", sym))
		case !declared[sym]:
			stale = append(stale, fmt.Sprintf("allowlist: %s is not declared; drop its line", sym))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// fakeDeadcodeTree writes one package of source under a fresh module root
// and returns the root.
func fakeDeadcodeTree(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "p")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// A test file's declarations are never scanned.
	if err := os.WriteFile(filepath.Join(dir, "p_test.go"), []byte("package p\n\nfunc testOnly() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

const fakeDeadcodeSrc = `package p

type T struct{}

func (T) Value() int           { return 0 }
func (*T) Pointer()            {}
func (T) Marker()              {}
func Generic[E any](e E) E     { return e }
func Used()                    {}
func Unused()                  {}
func init()                    {}
`

// fakeDeadcodeDump is the dumpdep edges a binary using everything in
// fakeDeadcodeSrc but Marker and Unused would print, in the linker's own
// spelling: the value-receiver method through its pointer wrapper, the
// generic function as a shape instantiation.
const fakeDeadcodeDump = `# example.com/m/cmd/x
main.main -> example.com/m/internal/p.Used
main.main -> example.com/m/internal/p.(*T).Value
main.main -> example.com/m/internal/p.(*T).Pointer
main.main -> example.com/m/internal/p.Generic[go.shape.struct { A []int }]
type:*example.com/m/internal/p.T -> example.com/m/internal/p.(*T).Pointer.argliveinfo
`

func runFakeDeadcode(t *testing.T, allowlist string) []string {
	t.Helper()
	root := fakeDeadcodeTree(t, fakeDeadcodeSrc)
	decls, err := scanDecls(root, "example.com/m", "internal")
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	parseDumpdep([]byte(fakeDeadcodeDump), linked)
	allow, problems := parseAllowlist([]byte(allowlist))
	return append(problems, checkDeadcode(decls, linked, allow)...)
}

// TestDeadcodeCheckerFlagsUnlinked: of the fake package, exactly Marker
// and Unused are reported — the generic instantiation and both spellings
// of a method are matched to their declarations, and neither init nor a
// test file's function is scanned.
func TestDeadcodeCheckerFlagsUnlinked(t *testing.T) {
	got := runFakeDeadcode(t, "")
	want := []string{
		"internal/p/p.go:7: example.com/m/internal/p.T.Marker is linked into no binary; delete it, or allowlist it with a reason",
		"internal/p/p.go:10: example.com/m/internal/p.Unused is linked into no binary; delete it, or allowlist it with a reason",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDeadcodeCheckerAllowlist: an allowlisted marker method passes; a line
// without a reason, and a stale line — its symbol linked, or declared
// nowhere — fail, so the allowlist cannot rot.
func TestDeadcodeCheckerAllowlist(t *testing.T) {
	const marker = "example.com/m/internal/p.T.Marker reached only by a type assertion\n"
	if got := runFakeDeadcode(t, marker+"# a comment\n\nexample.com/m/internal/p.Unused TestUnused\n"); len(got) != 0 {
		t.Fatalf("allowlisted marker and helper still reported: %q", got)
	}
	for _, c := range []struct{ line, want string }{
		{"example.com/m/internal/p.Unused\n", "gives no reason"},
		{"example.com/m/internal/p.Unused a\nexample.com/m/internal/p.Unused b\n", "listed twice"},
		{"example.com/m/internal/p.Unused a\nexample.com/m/internal/p.Used TestUsed\n", "p.Used is linked; drop its line"},
		{"example.com/m/internal/p.Unused a\nexample.com/m/internal/p.Value TestGone\n", "p.Value is not declared; drop its line"},
	} {
		got := runFakeDeadcode(t, marker+c.line)
		if !strings.Contains(strings.Join(got, "\n"), c.want) {
			t.Errorf("allowlist %q: problems %q, want one containing %q", c.line, got, c.want)
		}
	}
}

func TestLinkerName(t *testing.T) {
	for in, want := range map[string]string{
		"m/p.F":                       "m/p.F",
		"m/p.(*T).M":                  "m/p.T.M",
		"m/p.T.M":                     "m/p.T.M",
		"m/p.F[go.shape.[]int]":       "m/p.F",
		"m/p.(*R[go.shape.int]).Push": "m/p.R.Push",
		"m/p.F[go.shape.struct { X [2]int }].func1": "m/p.F.func1",
	} {
		if got := linkerName(in); got != want {
			t.Errorf("linkerName(%q) = %q, want %q", in, got, want)
		}
	}
}
