package nocalert

import (
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// internalPackages returns the packages `go list ./internal/...` reports,
// as paths relative to the module root ("internal/sim").
func internalPackages(t *testing.T) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list ./internal/...: %v", err)
	}
	var pkgs []string
	for _, p := range strings.Fields(string(out)) {
		pkgs = append(pkgs, strings.TrimPrefix(p, "nocalert/"))
	}
	sort.Strings(pkgs)
	return pkgs
}

// readmeArchitecture returns the internal/ entries of the code block under
// README.md's "## Architecture": every two-space-indented line below
// `internal/` names one or more packages ("sim/", "stats/, rng/, bitvec/")
// before its description.
func readmeArchitecture(t *testing.T) []string {
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
	_, block, ok = strings.Cut(block, "\ninternal/")
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
func TestArchitectureListsThePackages(t *testing.T) {
	want := internalPackages(t)
	if len(want) == 0 {
		t.Fatal("go list found no internal packages")
	}
	for doc, got := range map[string][]string{
		"README.md Architecture": readmeArchitecture(t),
		"DESIGN.md §2":           designInventory(t),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists\n %v\ngo list ./internal/... reports\n %v", doc, got, want)
		}
	}
}
