package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocalert/internal/core"
)

func testManifest() *Manifest {
	return &Manifest{
		Kind:         "manifest",
		Version:      CheckpointVersion,
		Spec:         json.RawMessage(`{"seed":3}`),
		SpecHash:     "00000000000000aa",
		UniverseHash: "00000000000000bb",
		Shard:        1,
		Shards:       4,
		Start:        10,
		End:          20,
	}
}

func testRecord(i int) RunRecord {
	return RunRecord{
		Index: i, Router: i % 4, Signal: "sa1.gnt", Port: 1, VC: -1, Bit: i % 3,
		FaultType: "transient", Cycle: 100, Fired: true, Drained: true,
		Outcome: FalsePositive, Latency: 0, CautiousOutcome: FalsePositive, CautiousLatency: 0,
		ForeverOutcome: TrueNegative, ForeverLatency: -1,
		CheckersFired: []core.CheckerID{2, 7}, FirstCycleCheckers: []core.CheckerID{2},
		WallSeconds: float64(i) * 0.001,
	}
}

// TestOutcomeText: an outcome is written as its abbreviation and read
// back as itself; a checkpoint record line carrying any other outcome
// text — an unknown abbreviation, a lower-case one, a number, the empty
// string — is refused when the checkpoint is read.
func TestOutcomeText(t *testing.T) {
	for o, want := range map[Outcome]string{TrueNegative: `"TN"`, TruePositive: `"TP"`, FalsePositive: `"FP"`, FalseNegative: `"FN"`} {
		b, err := json.Marshal(o)
		if err != nil || string(b) != want {
			t.Errorf("%v marshals to %s (%v), want %s", o, b, err, want)
		}
		var back Outcome
		if err := json.Unmarshal(b, &back); err != nil || back != o {
			t.Errorf("%s reads back as %v (%v), want %v", b, back, err, o)
		}
		if !o.Known() || o.Detected() != (o == TruePositive || o == FalsePositive) {
			t.Errorf("%v: Known %t, Detected %t", o, o.Known(), o.Detected())
		}
	}
	if Outcome(0).Known() {
		t.Error("the zero Outcome passes for one of the four")
	}

	path := filepath.Join(t.TempDir(), "shard.ndjson")
	cp, err := CreateCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(10)
	if err := cp.Append(&rec); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(raw)); err != nil {
		t.Fatalf("the intact checkpoint: %v", err)
	}
	field := []byte(`"cautious_outcome":"FP"`)
	if !bytes.Contains(raw, field) {
		t.Fatalf("checkpoint lacks %s:\n%s", field, raw)
	}
	for _, bad := range []string{`"XX"`, `"tp"`, `2`, `""`} {
		damaged := bytes.Replace(raw, field, []byte(`"cautious_outcome":`+bad), 1)
		if _, err := ReadCheckpoint(bytes.NewReader(damaged)); err == nil {
			t.Errorf("a record with cautious_outcome %s was read", bad)
		}
	}
}

func TestCheckpointWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	cp, err := CreateCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		rec := testRecord(i)
		if err := cp.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	cd, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cd.Manifest.Compatible(testManifest()) {
		t.Fatalf("manifest did not round-trip: %+v", cd.Manifest)
	}
	if len(cd.Records) != 10 {
		t.Fatalf("read %d records, want 10", len(cd.Records))
	}
	if cd.Footer == nil {
		t.Fatal("finalized checkpoint read back without footer")
	}
	if cd.Footer.Records != 10 {
		t.Fatalf("footer records = %d, want 10", cd.Footer.Records)
	}
	if cd.Footer.Sum != SumRecords(cd.Records) {
		t.Fatalf("footer sum %s != recomputed %s", cd.Footer.Sum, SumRecords(cd.Records))
	}
}

// TestCheckpointResumeAfterTornTail is the kill-mid-write scenario: a
// torn trailing line must be dropped and truncated so the resumed
// writer appends on a clean boundary.
func TestCheckpointResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	cp, err := CreateCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		rec := testRecord(i)
		if err := cp.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":14,"router":2,"nocal`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2, completed, err := ResumeCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 4 {
		t.Fatalf("resume recovered %d records, want 4", len(completed))
	}
	for i := 14; i < 20; i++ {
		rec := testRecord(i)
		if err := cp2.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp2.Finalize(); err != nil {
		t.Fatal(err)
	}
	cp2.Close()

	cd, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Records) != 10 || cd.Footer == nil {
		t.Fatalf("after resume: %d records, footer %v; want 10 with footer", len(cd.Records), cd.Footer)
	}
	// The footer checksum is order-independent and wall-independent, so
	// it must equal the sum over a freshly built record set.
	var fresh []RunRecord
	for i := 10; i < 20; i++ {
		fresh = append(fresh, testRecord(i))
	}
	if cd.Footer.Sum != SumRecords(fresh) {
		t.Fatalf("resumed checkpoint sum %s != uninterrupted sum %s", cd.Footer.Sum, SumRecords(fresh))
	}
}

func TestResumeCheckpointCreatesMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.ndjson")
	cp, completed, err := ResumeCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 0 {
		t.Fatalf("fresh resume returned %d records", len(completed))
	}
	cp.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("fresh resume did not create the checkpoint: %v", err)
	}
}

func TestResumeCheckpointRejectsForeignManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	cp, err := CreateCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	other := testManifest()
	other.SpecHash = "00000000000000cc"
	if _, _, err := ResumeCheckpoint(path, other); err == nil {
		t.Fatal("resume accepted a checkpoint from a different campaign")
	}
	wrongShard := testManifest()
	wrongShard.Shard = 2
	if _, _, err := ResumeCheckpoint(path, wrongShard); err == nil {
		t.Fatal("resume accepted a checkpoint from a different shard")
	}
}

func TestReadCheckpointRejectsCorruption(t *testing.T) {
	mb, _ := json.Marshal(testManifest())
	rec := testRecord(10)
	rb, _ := json.Marshal(&rec)

	// A malformed line with intact data after it is corruption.
	corrupt := string(mb) + "\n" + "{garbage}\n" + string(rb) + "\n"
	if _, err := ReadCheckpoint(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-file corruption not detected")
	}

	// A footer that miscounts is corruption.
	badFooter, _ := json.Marshal(&Footer{Kind: "footer", Records: 7, Sum: SumRecords([]RunRecord{rec})})
	miscount := string(mb) + "\n" + string(rb) + "\n" + string(badFooter) + "\n"
	if _, err := ReadCheckpoint(strings.NewReader(miscount)); err == nil {
		t.Fatal("footer record-count mismatch not detected")
	}

	// A footer with the wrong checksum is corruption.
	wrongSum, _ := json.Marshal(&Footer{Kind: "footer", Records: 1, Sum: "0000000000000000"})
	badsum := string(mb) + "\n" + string(rb) + "\n" + string(wrongSum) + "\n"
	if _, err := ReadCheckpoint(strings.NewReader(badsum)); err == nil {
		t.Fatal("footer checksum mismatch not detected")
	}

	// Records after the footer are corruption.
	footer, _ := json.Marshal(&Footer{Kind: "footer", Records: 1, Sum: SumRecords([]RunRecord{rec})})
	after := string(mb) + "\n" + string(rb) + "\n" + string(footer) + "\n" + string(rb) + "\n"
	if _, err := ReadCheckpoint(strings.NewReader(after)); err == nil {
		t.Fatal("data after footer not detected")
	}

	// No manifest at all.
	if _, err := ReadCheckpoint(strings.NewReader(string(rb) + "\n")); err == nil {
		t.Fatal("missing manifest not detected")
	}
}

func TestAppendToFinalizedCheckpointFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	cp, err := CreateCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(10)
	if err := cp.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := cp.Finalize(); err != nil {
		t.Fatal(err)
	}
	rec2 := testRecord(11)
	if err := cp.Append(&rec2); err == nil {
		t.Fatal("append after finalize succeeded")
	}
	cp.Close()
}

// TestSumRecordsOrderAndWallIndependent pins the two properties the
// resumable format relies on.
func TestSumRecordsOrderAndWallIndependent(t *testing.T) {
	a := []RunRecord{testRecord(1), testRecord(2), testRecord(3)}
	b := []RunRecord{testRecord(3), testRecord(1), testRecord(2)}
	for i := range b {
		b[i].WallSeconds *= 17 // wall time varies run to run
	}
	if SumRecords(a) != SumRecords(b) {
		t.Fatal("record checksum depends on order or wall time")
	}
	c := []RunRecord{testRecord(1), testRecord(2)}
	if SumRecords(a) == SumRecords(c) {
		t.Fatal("record checksum misses a dropped record")
	}
	d := []RunRecord{testRecord(1), testRecord(2), testRecord(3)}
	d[1].Outcome = FalseNegative
	if SumRecords(a) == SumRecords(d) {
		t.Fatal("record checksum misses an outcome drift")
	}
}

// TestResumeAfterLostNewline: a kill can land between a record's JSON and
// its newline, leaving a final line that parses. It is torn all the same:
// resume must drop it (its run is executed again), or the next append
// lands on the same line and the checkpoint never reads again. A footer
// that lost its newline leaves the shard unfinalized, to be finalized
// again.
func TestResumeAfterLostNewline(t *testing.T) {
	dropLastByte := func(path string) {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-1); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	cp, err := CreateCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 12; i++ {
		rec := testRecord(i)
		if err := cp.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()
	dropLastByte(path)

	cp, completed, err := ResumeCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 1 {
		t.Fatalf("resume recovered %d records, want 1: the last lost its newline", len(completed))
	}
	for i := 11; i < 13; i++ {
		rec := testRecord(i)
		if err := cp.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Finalize(); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	cd, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after resume and append: %v", err)
	}
	if len(cd.Records) != 3 || cd.Footer == nil {
		t.Fatalf("after resume: %d records, footer %v; want 3 with footer", len(cd.Records), cd.Footer)
	}

	// The footer loses its newline: the shard is no longer finalized.
	dropLastByte(path)
	cp, completed, err = ResumeCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Finalized() || len(completed) != 3 {
		t.Fatalf("torn footer: finalized %t with %d records, want unfinalized with 3", cp.Finalized(), len(completed))
	}
	if err := cp.Finalize(); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if cd, err := ReadCheckpointFile(path); err != nil || cd.Footer == nil || len(cd.Records) != 3 {
		t.Fatalf("refinalized checkpoint: %v, %+v", err, cd)
	}
}

// validCheckpoint returns the bytes of a checkpoint of three records,
// finalized or not.
func validCheckpoint(t testing.TB, finalized bool) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.ndjson")
	cp, err := CreateCheckpoint(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		rec := testRecord(i)
		if err := cp.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if finalized {
		if err := cp.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzCheckpointResume damages a valid checkpoint — truncates it at cut,
// appends tail, and XORs flip into the byte at flipAt — and holds the
// reader and resume to two properties: ReadCheckpoint never panics, and
// whenever ResumeCheckpoint accepts the file, one Append later the file
// reads back as the resumed records plus the new one.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(false, uint16(0xffff), []byte(nil), uint16(0), byte(0))
	f.Add(true, uint16(0xffff), []byte(nil), uint16(0), byte(0))
	// The lost newline: every byte but the last record's "\n".
	f.Add(false, uint16(len(validCheckpoint(f, false))-1), []byte(nil), uint16(0), byte(0))
	f.Add(false, uint16(40), []byte(`{"index":14,"router":2,"nocal`), uint16(0), byte(0))
	f.Add(true, uint16(0xffff), []byte("{}\n"), uint16(300), byte(0x20))
	f.Fuzz(func(t *testing.T, finalized bool, cut uint16, tail []byte, flipAt uint16, flip byte) {
		data := validCheckpoint(t, finalized)
		data = append(data[:min(int(cut), len(data))], tail...)
		if len(data) > 0 {
			data[int(flipAt)%len(data)] ^= flip
		}
		ReadCheckpoint(bytes.NewReader(data))

		path := filepath.Join(t.TempDir(), "shard.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, resumed, err := ResumeCheckpoint(path, testManifest())
		if err != nil {
			return
		}
		defer cp.Close()
		if cp.Finalized() {
			return // a finalized checkpoint takes no appends
		}
		rec := testRecord(99)
		if err := cp.Append(&rec); err != nil {
			t.Fatal(err)
		}
		cd, err := ReadCheckpointFile(path)
		if err != nil {
			t.Fatalf("resumed %d records, appended one, and the checkpoint no longer reads: %v\nfile before resume: %q", len(resumed), err, data)
		}
		want := append(resumed, rec)
		if len(cd.Records) != len(want) {
			t.Fatalf("read %d records back, want the %d resumed plus one", len(cd.Records), len(resumed))
		}
		for i := range want {
			if !bytes.Equal(cd.Records[i].CanonicalBytes(), want[i].CanonicalBytes()) {
				t.Fatalf("record %d read back as %s, want %s", i, cd.Records[i].CanonicalBytes(), want[i].CanonicalBytes())
			}
		}
	})
}
