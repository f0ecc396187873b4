package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nocalert/internal/campaign"
)

// TestMain runs the command itself when the test binary is re-executed
// with FAULTCAMPAIGN_MAIN=1, so tests drive the real flag parsing and
// mode split.
func TestMain(m *testing.M) {
	if os.Getenv("FAULTCAMPAIGN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// faultcampaign runs the command with args and returns its stdout,
// failing the test on a non-zero exit.
func faultcampaign(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FAULTCAMPAIGN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("faultcampaign %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// golden4x4 is the spec of testdata/golden_4x4_seed3.json.
var golden4x4 = []string{"-mesh", "4x4", "-vcs", "4", "-rate", "0.12", "-seed", "3",
	"-inject", "300", "-post", "400", "-drain", "5000", "-epoch", "400", "-faults", "96"}

// TestCheckpointAloneMergesToPlainJSON runs the golden 4×4 campaign with
// -checkpoint and no -shard: it runs as shard 0/1, and merging its one
// checkpoint yields a report byte-identical to a plain run's -json and
// records that pass the committed fixture.
func TestCheckpointAloneMergesToPlainJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.json")
	ckpt := filepath.Join(dir, "runs.ndjson")
	merged := filepath.Join(dir, "merged.json")
	faultcampaign(t, append(golden4x4, "-fig", "none", "-progress=false", "-json", plain)...)
	out := faultcampaign(t, append(golden4x4, "-progress=false", "-checkpoint", ckpt)...)
	if !strings.Contains(out, "shard 0/1:") || !strings.Contains(out, "checkpoint finalized") {
		t.Fatalf("-checkpoint alone did not run and finalize shard 0/1:\n%s", out)
	}
	faultcampaign(t, "merge", "-fig", "none", "-golden", filepath.Join("..", "..", "testdata", "golden_4x4_seed3.json"),
		"-out", merged, ckpt)
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merged checkpoint report differs from the plain run's -json")
	}
}

// TestFigureNamesPrint holds the -fig help to printFigures and obs3:
// every name a mode's help lists prints something, 'all' prints every
// one but heatmap, and 'none' prints nothing.
func TestFigureNamesPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	fs := flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
	sf := addSpecFlags(fs)
	if err := fs.Parse(golden4x4); err != nil {
		t.Fatal(err)
	}
	spec, err := sf.spec()
	if err != nil {
		t.Fatal(err)
	}
	execOpts := spec.Options()
	opts := execOpts
	opts.Faults = spec.Universe()
	rep, err := campaign.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	// render prints what the main command prints for -fig figs: the
	// report figures, then the Observation 3 table.
	render := func(figs string) string {
		var buf bytes.Buffer
		printFigures(&buf, rep, parseFigures(figs))
		if parseFigures(figs).has("obs3") {
			obs3(&buf, execOpts)
		}
		return buf.String()
	}

	var all string // every figure's output but heatmap's, in print order
	for _, name := range strings.Split(mainFigureNames, ",") {
		t.Run(name, func(t *testing.T) {
			out := render(name)
			if strings.TrimSpace(out) == "" {
				t.Fatalf("-fig %s prints nothing", name)
			}
			if name != "heatmap" {
				all += out
			}
		})
	}
	if got := render("all"); got != all {
		t.Error("-fig all does not print every figure but heatmap")
	}
	for _, figs := range []string{"none", "6,none"} {
		if got := render(figs); got != "" {
			t.Errorf("-fig %s printed %d bytes", figs, len(got))
		}
	}
}

// TestBadRateRefusedInEveryMode: an injection rate that is not a number in
// [0, 1], and a VC count the router refuses, are refused before anything
// runs — exit status 1 and the spec's message, no panic, no report, no
// fault population — in the plain, shard and dispatch modes alike.
// (Dispatch refuses before it contacts a worker.)
func TestBadRateRefusedInEveryMode(t *testing.T) {
	dir := t.TempDir()
	spec := []string{"-mesh", "4x4", "-faults", "4", "-fig", "none", "-progress=false"}
	type bad struct{ name, flag, value, want string }
	var cases []bad
	for _, rate := range []string{"NaN", "+Inf", "-Inf", "-0.5", "1.5"} {
		cases = append(cases, bad{rate, "-rate", rate, "invalid injection rate"})
	}
	for _, vcs := range []string{"9", "33"} {
		cases = append(cases, bad{"vcs" + vcs, "-vcs", vcs, "VCs must be in"})
	}
	for _, c := range cases {
		for _, mode := range []struct {
			name string
			args []string
		}{
			{"plain", spec},
			{"shard", append([]string{"-shard", "0/2", "-checkpoint", filepath.Join(dir, "s.ndjson")}, spec...)},
			{"dispatch", append([]string{"dispatch", "-workers", "http://127.0.0.1:1"}, spec...)},
		} {
			t.Run(mode.name+"/"+c.name, func(t *testing.T) {
				cmd := exec.Command(os.Args[0], append(mode.args, c.flag, c.value)...)
				cmd.Env = append(os.Environ(), "FAULTCAMPAIGN_MAIN=1")
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				err := cmd.Run()
				ee, ok := err.(*exec.ExitError)
				if !ok || ee.ExitCode() != 1 {
					t.Fatalf("exit %v, want status 1\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				if !strings.Contains(stderr.String(), c.want) || strings.Contains(stderr.String(), "panic") {
					t.Fatalf("stderr does not refuse %s %s:\n%s", c.flag, c.value, stderr.String())
				}
				if stdout.Len() != 0 {
					t.Fatalf("a refused spec printed:\n%s", stdout.String())
				}
			})
		}
	}
}
