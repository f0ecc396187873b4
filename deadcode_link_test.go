//go:build deadcode

package nocalert

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestDeadcode is `make deadcode`: it links every main package of the
// module (the commands under cmd/ and bench) with inlining off and the
// linker's dependency dump on, and fails on any function or method declared
// in a non-test file under internal/ that none of them links and
// testdata/deadcode.allow does not name, or on an allowlist line that has
// gone stale. Run it with `go test -tags deadcode -run TestDeadcode .`.
func TestDeadcode(t *testing.T) {
	// With -o naming a directory, go build links every main package of the
	// pattern into it; each link's dump follows a "# package" line.
	dump, err := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep",
		"-o", t.TempDir()+string(os.PathSeparator), "./...").CombinedOutput()
	if err != nil {
		lines := strings.Split(strings.TrimSpace(string(dump)), "\n")
		t.Fatalf("go build: %v\n%s", err, strings.Join(lines[max(0, len(lines)-20):], "\n"))
	}
	mains := strings.Count("\n"+string(dump), "\n# ")
	if mains == 0 {
		t.Fatal("go build linked no main package")
	}
	linked := map[string]bool{}
	parseDumpdep(dump, linked)

	decls, err := scanDecls(".", "nocalert", "internal")
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile("testdata/deadcode.allow")
	if err != nil {
		t.Fatal(err)
	}
	allow, problems := parseAllowlist(data)
	problems = append(problems, checkDeadcode(decls, linked, allow)...)
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d main packages, %d declarations, %d allowlisted", mains, len(decls), len(allow))
}
