package nocalert

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goList returns the packages `go list` reports for pattern, as paths
// relative to the module root ("internal/sim"); with mainOnly set, only
// the main packages.
func goList(t *testing.T, pattern string, mainOnly bool) []string {
	t.Helper()
	args := []string{"list"}
	if mainOnly {
		args = append(args, "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`)
	}
	out, err := exec.Command("go", append(args, pattern)...).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pattern, err)
	}
	var pkgs []string
	for _, p := range strings.Fields(string(out)) {
		pkgs = append(pkgs, strings.TrimPrefix(p, "nocalert/"))
	}
	sort.Strings(pkgs)
	return pkgs
}

// readmeArchitecture returns the code block under README.md's
// "## Architecture".
func readmeArchitecture(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, arch, ok := strings.Cut(string(b), "\n## Architecture\n")
	if !ok {
		t.Fatal("README.md has no Architecture section")
	}
	_, block, _ := strings.Cut(arch, "```\n")
	block, _, _ = strings.Cut(block, "```")
	return block
}

// architectureRoot returns the root-level entries of the Architecture
// block: every line that starts in column one names a top-level file or
// directory ("cmd/") before its description, which the map holds.
func architectureRoot(block string) map[string]string {
	root := map[string]string{}
	for _, line := range strings.Split(block, "\n") {
		if line == "" || strings.HasPrefix(line, " ") {
			continue
		}
		name, desc, _ := strings.Cut(line, " ")
		root[name] = strings.TrimSpace(desc)
	}
	return root
}

// architecturePackages returns the internal/ entries of the Architecture
// block: every two-space-indented line below `internal/` names one or more
// packages ("sim/", "stats/, rng/, bitvec/") before its description.
func architecturePackages(t *testing.T, block string) []string {
	t.Helper()
	_, block, ok := strings.Cut("\n"+block, "\ninternal/")
	if !ok {
		t.Fatal("README.md's Architecture block has no internal/ entry")
	}
	var pkgs []string
	for _, line := range strings.Split(block, "\n")[1:] {
		if !strings.HasPrefix(line, "  ") {
			break // back at the module root: cmd/, bench/, …
		}
		if strings.HasPrefix(line, "   ") {
			continue // a description's continuation
		}
		for _, f := range strings.Fields(line) {
			name := strings.TrimSuffix(f, ",")
			if !strings.HasSuffix(name, "/") {
				break
			}
			pkgs = append(pkgs, "internal/"+strings.TrimSuffix(name, "/"))
		}
	}
	sort.Strings(pkgs)
	return pkgs
}

// designInventory returns the internal/ packages of DESIGN.md §2's
// package table, one row each.
func designInventory(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(b), "\n## 2. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 2")
	}
	sec, _, _ = strings.Cut(sec, "\n#")
	var pkgs []string
	for _, line := range strings.Split(sec, "\n") {
		if p, ok := strings.CutPrefix(line, "| `internal/"); ok {
			name, _, _ := strings.Cut(p, "`")
			pkgs = append(pkgs, "internal/"+name)
		}
	}
	sort.Strings(pkgs)
	return pkgs
}

// TestArchitectureListsThePackages holds README.md's Architecture block and
// DESIGN.md §2's package table to the packages that exist: a package added,
// deleted or renamed under internal/ fails it until both documents say so.
// The block's root-level lines are held to the tree too: each names a
// top-level file or directory that exists, and the cmd/ line names exactly
// the main packages under cmd/.
func TestArchitectureListsThePackages(t *testing.T) {
	want := goList(t, "./internal/...", false)
	if len(want) == 0 {
		t.Fatal("go list found no internal packages")
	}
	block := readmeArchitecture(t)
	for doc, got := range map[string][]string{
		"README.md Architecture": architecturePackages(t, block),
		"DESIGN.md §2":           designInventory(t),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists\n %v\ngo list ./internal/... reports\n %v", doc, got, want)
		}
	}

	root := architectureRoot(block)
	for name := range root {
		if _, err := os.Stat(name); err != nil {
			t.Errorf("README.md Architecture lists %s at the module root: %v", name, err)
		}
	}
	var cmds []string
	for _, f := range strings.Fields(root["cmd/"]) {
		cmds = append(cmds, "cmd/"+strings.TrimSuffix(f, ","))
	}
	sort.Strings(cmds)
	if mains := goList(t, "./cmd/...", true); !reflect.DeepEqual(cmds, mains) {
		t.Errorf("README.md Architecture's cmd/ line lists\n %v\nthe main packages under cmd/ are\n %v", cmds, mains)
	}
}

// flagRegistrations returns every command-line flag name the non-test Go
// files under dirs register with the flag package (flag.Int, fs.StringVar,
// fs.Func, …), mapped to where it is registered.
func flagRegistrations(t *testing.T, dirs ...string) map[string]string {
	t.Helper()
	// The flag name's argument index for each registration method: the
	// value-returning forms and Func/BoolFunc take it first, Var and the
	// *Var forms after the value or destination.
	nameArg := map[string]int{
		"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
		"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
		"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
		"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "TextVar": 1, "Var": 1,
	}
	flags := map[string]string{}
	fset := token.NewFileSet()
	walk := func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := nameArg[sel.Sel.Name]
			if !ok || len(call.Args) <= i {
				return true
			}
			lit, ok := call.Args[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err == nil {
				flags[name] = fset.Position(lit.Pos()).String()
			}
			return true
		})
		return nil
	}
	for _, dir := range dirs {
		if err := filepath.WalkDir(dir, walk); err != nil {
			t.Fatal(err)
		}
	}
	return flags
}

// TestReadmeDocumentsEveryFlag holds README.md to the flags the commands
// register: a flag added under cmd/ fails it until README mentions
// `-name`.
func TestReadmeDocumentsEveryFlag(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := flagRegistrations(t, "cmd")
	if len(flags) < 20 {
		t.Fatalf("found only %d flag registrations under cmd/: the scan misses the registration forms", len(flags))
	}
	for name, at := range flags {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).Match(b) {
			t.Errorf("%s: flag -%s is not documented in README.md", at, name)
		}
	}
}

// goToolFlags are `go` tool flags README.md may show in a backticked
// command (`go test -race ./...`); no binary of this module registers
// them.
var goToolFlags = map[string]bool{
	"race": true, "run": true, "tags": true, "count": true,
	"bench": true, "benchtime": true, "short": true,
}

// TestReadmeFlagsAreRegistered is TestReadmeDocumentsEveryFlag's reverse:
// every `-name` inside a README.md code span must be a flag a cmd/ or
// bench binary registers, or a go tool flag, so README cannot go on
// documenting a flag that was deleted.
func TestReadmeFlagsAreRegistered(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := flagRegistrations(t, "cmd", "bench")
	fence := regexp.MustCompile("(?s)```.*?```")
	span := regexp.MustCompile("`([^`\n]+)`")
	flagTok := regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	seen := 0
	for _, sp := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(b), ""), -1) {
		for _, m := range flagTok.FindAllStringSubmatch(sp[1], -1) {
			seen++
			if _, ok := flags[m[1]]; !ok && !goToolFlags[m[1]] {
				t.Errorf("README.md documents -%s (in `%s`), which no cmd/ or bench binary registers", m[1], sp[1])
			}
		}
	}
	if seen < 20 {
		t.Fatalf("found only %d flags in README.md code spans: the scan misses them", seen)
	}
}
