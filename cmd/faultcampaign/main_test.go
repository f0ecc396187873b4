package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nocalert/internal/campaign"
	"nocalert/internal/trace"
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
	stdout, stderr, err := runFaultcampaign(args...)
	if err != nil {
		t.Fatalf("faultcampaign %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout
}

// runFaultcampaign runs the command with args and returns what it printed
// and how it exited.
func runFaultcampaign(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FAULTCAMPAIGN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// golden4x4 is the spec of testdata/golden_4x4_seed3.json.
var golden4x4 = []string{"-mesh", "4x4", "-vcs", "4", "-rate", "0.12", "-seed", "3",
	"-inject", "300", "-post", "400", "-drain", "5000", "-epoch", "400", "-faults", "96"}

// TestCheckpointAloneMergesToPlainJSON runs the golden 4×4 campaign three
// ways: plain, with -checkpoint and no -shard (shard 0/1, whose records
// are kept), and as merge of that checkpoint. All three print the same
// figure block, from the first figure through the Observation 1 line, and
// write the same -json; the checkpoint's records pass the committed
// fixture.
func TestCheckpointAloneMergesToPlainJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "runs.ndjson")
	report := func(name string) string { return filepath.Join(dir, name+".json") }
	outs := map[string]string{
		"plain": faultcampaign(t, append(golden4x4, "-progress=false", "-json", report("plain"))...),
		"checkpoint": faultcampaign(t, append(golden4x4, "-progress=false", "-checkpoint", ckpt,
			"-json", report("checkpoint"))...),
	}
	if out := outs["checkpoint"]; !strings.Contains(out, "shard 0/1: 96/96 runs") || !strings.Contains(out, "checkpoint finalized") {
		t.Fatalf("-checkpoint alone did not run and finalize shard 0/1:\n%s", out)
	}
	outs["merge"] = faultcampaign(t, "merge", "-out", report("merge"), ckpt)
	faultcampaign(t, "merge", "-fig", "none", "-golden", filepath.Join("..", "..", "testdata", "golden_4x4_seed3.json"), ckpt)

	// block is the figures through the Observation 1 line (merge prints its
	// per-shard summary before them).
	block := func(mode string) string {
		out := outs[mode]
		from, to := strings.Index(out, "\n== Figure"), strings.Index(out, "Observation 1 — ")
		if from < 0 || to < from {
			t.Fatalf("%s printed no figures before the Observation 1 line:\n%s", mode, out)
		}
		return out[from : to+strings.Index(out[to:], "\n")]
	}
	want, err := os.ReadFile(report("plain"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"checkpoint", "merge"} {
		if block(mode) != block("plain") {
			t.Errorf("%s printed other figures than the plain run:\n%s\n--- plain:\n%s", mode, block(mode), block("plain"))
		}
		got, err := os.ReadFile(report(mode))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s wrote a report other than the plain run's -json", mode)
		}
	}
}

// TestShardRefusesJSON: a shard of several is part of a campaign, so
// -json with -shard i/N (N > 1) is refused before anything runs, while
// -shard 0/1 is the whole campaign and writes it.
func TestShardRefusesJSON(t *testing.T) {
	dir := t.TempDir()
	ckpt, report := filepath.Join(dir, "s.ndjson"), filepath.Join(dir, "r.json")
	stdout, stderr, err := runFaultcampaign(append(golden4x4, "-progress=false", "-shard", "1/2", "-checkpoint", ckpt, "-json", report)...)
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr, "-json needs the whole campaign") {
		t.Fatalf("-shard 1/2 -json: exit %v, want status 1\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("a refused shard left a checkpoint behind (%v)", err)
	}
	if testing.Short() {
		return
	}
	faultcampaign(t, append(golden4x4, "-progress=false", "-fig", "none", "-shard", "0/1", "-checkpoint", ckpt, "-json", report)...)
	if _, err := os.Stat(report); err != nil {
		t.Errorf("-shard 0/1 -json wrote no report: %v", err)
	}
}

// TestMergeOutputIsTheRecords merges two independently run checkpoints of
// the golden 4×4 campaign, one run on one worker and one on two, and
// requires the same stdout: what merge prints is a function of the
// records. A record's wall time is the one field a re-run changes, and it
// stays out of the records checksum; so that the two differ for certain and
// not by chance, the second checkpoint's are rewritten to one second a run
// before it is merged.
func TestMergeOutputIsTheRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	dir := t.TempDir()
	var outs []string
	for i, workers := range []string{"1", "2"} {
		ckpt := filepath.Join(dir, "runs"+workers+".ndjson")
		faultcampaign(t, append(golden4x4, "-progress=false", "-workers", workers, "-checkpoint", ckpt)...)
		if i == 1 {
			b, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			wall := regexp.MustCompile(`"wall_seconds":[^,}]*`)
			if len(wall.FindAll(b, -1)) != 96 {
				t.Fatalf("checkpoint %s: want 96 records with a wall time:\n%s", ckpt, b)
			}
			if err := os.WriteFile(ckpt, wall.ReplaceAll(b, []byte(`"wall_seconds":1`)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		outs = append(outs, faultcampaign(t, "merge", ckpt))
	}
	if outs[0] != outs[1] {
		t.Errorf("merge printed different output for the same records:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// TestMergeFailsOnFalseNegative runs the golden 4×4 campaign into a
// checkpoint, rewrites one benign run that no mechanism flagged into a
// false negative of all three — the network's verdict malicious, nothing
// detected — and finalizes the rewritten records into a valid checkpoint
// of the same campaign. merge must fold it, print the Observation 1 line
// with the one false negative, and exit 1: the paper's claim is that there
// are none, and a merged report is where `make paper` reads its tables.
func TestMergeFailsOnFalseNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "runs.ndjson")
	faultcampaign(t, append(golden4x4, "-progress=false", "-checkpoint", ckpt)...)
	cd, err := trace.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "fn.ndjson")
	cp, err := trace.CreateCheckpoint(bad, &cd.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := false
	for i := range cd.Records {
		rec := &cd.Records[i]
		tn := trace.TrueNegative
		if !rewritten && rec.Outcome == tn && rec.CautiousOutcome == tn && rec.ForeverOutcome == tn {
			fn := trace.FalseNegative
			rec.Malicious, rec.Outcome, rec.CautiousOutcome, rec.ForeverOutcome = true, fn, fn, fn
			rewritten = true
		}
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !rewritten {
		t.Fatal("no true negative to rewrite in the golden campaign")
	}
	if err := cp.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, err := runFaultcampaign("merge", "-fig", "6", bad)
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("merge of a checkpoint with a NoCAlert false negative: exit %v, want status 1\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	if !strings.Contains(stdout, "Observation 1 — NoCAlert false negatives: 1 ") || !strings.Contains(stdout, "== Figure 6") {
		t.Errorf("merge did not print the figures and the Observation 1 line before failing:\n%s", stdout)
	}
	if out := faultcampaign(t, "merge", "-fig", "none", ckpt); !strings.Contains(out, "Observation 1 — NoCAlert false negatives: 0 ") {
		t.Errorf("merge of the campaign as run:\n%s", out)
	}
}

// TestObs3RunsAlone: -fig obs3 with no other figure and no -json prints
// the Observation 3 table and nothing else — no main campaign runs — while
// -fig none still runs the campaign (its summary line and the Observation
// 1 line) and prints no figure.
func TestObs3RunsAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	out := faultcampaign(t, append(golden4x4, "-progress=false", "-fig", "obs3")...)
	if !strings.HasPrefix(out, "== Observation 3") || strings.Count(out, "\n\n") != 1 || !strings.HasSuffix(out, "\n\n") {
		t.Errorf("-fig obs3 printed more than its table:\n%s", out)
	}
	out = faultcampaign(t, append(golden4x4, "-progress=false", "-fig", "none")...)
	if !strings.Contains(out, "\nshard 0/1: 96/96 runs") || !strings.Contains(out, "Observation 1") || strings.Contains(out, "== ") {
		t.Errorf("-fig none did not run the campaign alone:\n%s", out)
	}
}

// paperFlags is the spec `make paper` runs at each injection instant; keep
// it in sync with the Makefile's PAPER_FLAGS.
var paperFlags = []string{"-mesh", "8x8", "-rate", "0.05", "-seed", "1"}

// TestPaperPopulation re-runs the cheapest of `make paper`'s instants,
// every fault location of the 8×8 mesh injected at cycle 0, through the
// same checkpoint and merge, and requires the report and merge's stdout
// to be byte-identical to the committed testdata/paper/cycle0.json and
// cycle0.txt, which EXPERIMENTS.md quotes. Every committed instant's
// report must show no false negative for any mechanism (Observation 1).
func TestPaperPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-population campaign in -short mode")
	}
	paper := filepath.Join("..", "..", "testdata", "paper")
	for _, c := range []string{"0", "16000", "32000"} {
		b, err := os.ReadFile(filepath.Join(paper, "cycle"+c+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Faults int `json:"faults"`
			Fig6   []struct {
				Mechanism string  `json:"mechanism"`
				FN        float64 `json:"fn_pct"`
			} `json:"fig6_coverage"`
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatalf("cycle%s.json: %v", c, err)
		}
		if rep.Faults != 32256 || len(rep.Fig6) != 3 {
			t.Fatalf("cycle%s.json: %d faults and %d Figure 6 rows, want the 32256-location population and 3 mechanisms", c, rep.Faults, len(rep.Fig6))
		}
		for _, m := range rep.Fig6 {
			if m.FN != 0 {
				t.Errorf("cycle%s.json: %s false negatives %.2f%%, want 0", c, m.Mechanism, m.FN)
			}
		}
	}

	dir := t.TempDir()
	ckpt, out := filepath.Join(dir, "c0.ndjson"), filepath.Join(dir, "cycle0.json")
	faultcampaign(t, append(paperFlags, "-faults", "0", "-inject", "0", "-progress=false", "-checkpoint", ckpt)...)
	txt := faultcampaign(t, "merge", "-out", out, ckpt)
	gotJSON, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"cycle0.json": gotJSON, "cycle0.txt": []byte(txt)} {
		want, err := os.ReadFile(filepath.Join(paper, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the cycle-0 population's %s differs from testdata/paper/%s (`make paper` regenerates it)", name, name)
		}
	}
}

// TestFigureNamesPrint holds the -fig help to printFigures and obs3:
// every name a mode's help lists prints something, 'all' prints every
// one but heatmap and obs3, and 'none' prints nothing.
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
	opts := spec.Options()
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
			obs3(&buf, spec, campaign.Exec{})
		}
		return buf.String()
	}

	var all string // every figure's output but heatmap's and obs3's, in print order
	for _, name := range strings.Split(mainFigureNames, ",") {
		t.Run(name, func(t *testing.T) {
			out := render(name)
			if strings.TrimSpace(out) == "" {
				t.Fatalf("-fig %s prints nothing", name)
			}
			if name != "heatmap" && name != "obs3" {
				all += out
			}
		})
	}
	if got := render("all"); got != all {
		t.Error("-fig all does not print every figure but heatmap and obs3")
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
	cases = append(cases,
		bad{"mesh65536", "-mesh", "65536x65536", "over the spec budget"},
		bad{"post1e9", "-post", "1000000000", "over the spec budget"})
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
				stdout, stderr, err := runFaultcampaign(append(mode.args, c.flag, c.value)...)
				ee, ok := err.(*exec.ExitError)
				if !ok || ee.ExitCode() != 1 {
					t.Fatalf("exit %v, want status 1\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
				}
				if !strings.Contains(stderr, c.want) || strings.Contains(stderr, "panic") {
					t.Fatalf("stderr does not refuse %s %s:\n%s", c.flag, c.value, stderr)
				}
				if stdout != "" {
					t.Fatalf("a refused spec printed:\n%s", stdout)
				}
			})
		}
	}
}
