package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
)

// A checkpoint file is the durable state of one campaign shard: an
// NDJSON stream opening with a self-describing Manifest line, followed
// by one RunRecord line per completed run (in completion order), and —
// once the shard has finished every run — a Footer line carrying an
// integrity checksum. The format is append-only, so a killed shard
// leaves at worst one torn trailing line, which resume truncates away;
// every fully written record survives.
//
// Manifest and Footer lines are distinguished from records by their
// "kind" field, which RunRecord does not carry.

// CheckpointVersion is the checkpoint stream format version.
const CheckpointVersion = 1

// Manifest is the first line of a checkpoint: everything a reader
// needs to know which campaign and which slice of it the records
// belong to, without any out-of-band context.
type Manifest struct {
	Kind    string `json:"kind"` // always "manifest"
	Version int    `json:"version"`
	// Spec is the full campaign specification (campaign.Spec JSON),
	// embedded opaquely so this package does not depend on the campaign
	// package. Merge rebuilds the report's options from it.
	Spec json.RawMessage `json:"spec"`
	// SpecHash and UniverseHash fingerprint the spec and the exact
	// fault universe it expands to; shards with differing hashes must
	// never be merged or resumed into each other.
	SpecHash     string `json:"spec_hash"`
	UniverseHash string `json:"universe_hash"`
	// Shard i of Shards covers global fault indices [Start, End).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	Start  int `json:"start"`
	End    int `json:"end"`
}

// Compatible reports whether two manifests describe the same shard of
// the same campaign — the precondition for resuming one's checkpoint
// under the other.
func (m *Manifest) Compatible(o *Manifest) bool {
	return m.Version == o.Version &&
		m.SpecHash == o.SpecHash &&
		m.UniverseHash == o.UniverseHash &&
		m.Shard == o.Shard && m.Shards == o.Shards &&
		m.Start == o.Start && m.End == o.End
}

// Footer is the last line of a completed checkpoint.
type Footer struct {
	Kind string `json:"kind"` // always "footer"
	// Records is the number of record lines in the file.
	Records int `json:"records"`
	// Sum is the order-independent integrity checksum over the
	// records' canonical bytes (see SumRecords). Order independence
	// matters because a resumed shard appends records in a different
	// completion order than an uninterrupted one, yet must finalize to
	// the same checksum.
	Sum string `json:"sum"`
}

// RecordHash returns the FNV-1a 64-bit hash of the record's canonical
// bytes.
func RecordHash(r *RunRecord) uint64 {
	h := fnv.New64a()
	h.Write(r.CanonicalBytes())
	return h.Sum64()
}

// SumRecords folds per-record hashes into the checkpoint checksum: the
// XOR of every record's RecordHash, rendered as hex. XOR makes the sum
// independent of record order and incrementally maintainable.
func SumRecords(recs []RunRecord) string {
	var sum uint64
	for i := range recs {
		sum ^= RecordHash(&recs[i])
	}
	return fmt.Sprintf("%016x", sum)
}

// lineKind peeks at a checkpoint line's "kind" field. Record lines
// have none and return "".
func lineKind(b []byte) string {
	var k struct {
		Kind string `json:"kind"`
	}
	if json.Unmarshal(b, &k) != nil {
		return ""
	}
	return k.Kind
}

// CheckpointData is a fully parsed checkpoint stream.
type CheckpointData struct {
	Manifest Manifest
	Records  []RunRecord
	// Footer is non-nil once the shard finalized; its Records count and
	// Sum have already been verified against the parsed records.
	Footer *Footer
	// validBytes is the offset just past the last intact line —
	// where an appending resume must truncate to.
	validBytes int64
}

// ReadCheckpoint parses a checkpoint stream. A torn trailing line (the
// normal residue of a killed shard) is tolerated and dropped; any
// malformed line with intact data after it is corruption and errors.
// A final line without its newline is torn whatever it parses as: a kill
// can land between a record's JSON and its newline, and an append must not
// land on that line. If a footer is present it must be the final line and
// must match the records, making a finalized checkpoint self-verifying.
func ReadCheckpoint(r io.Reader) (*CheckpointData, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	cd := &CheckpointData{}
	sawManifest := false
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // end of stream, or a torn line validBytes stops short of
		}
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			cd.validBytes += int64(len(line))
			continue
		}
		lineNo++
		bad := func(what string, perr error) error {
			return fmt.Errorf("trace: checkpoint line %d: bad %s: %v", lineNo, what, perr)
		}
		switch {
		case !sawManifest:
			if k := lineKind(line); k != "manifest" {
				return nil, fmt.Errorf("trace: checkpoint line %d: expected manifest, got kind %q", lineNo, k)
			}
			if perr := json.Unmarshal(line, &cd.Manifest); perr != nil {
				return nil, bad("manifest", perr)
			}
			if cd.Manifest.Version != CheckpointVersion {
				return nil, fmt.Errorf("trace: checkpoint version %d, want %d", cd.Manifest.Version, CheckpointVersion)
			}
			sawManifest = true
		case cd.Footer != nil:
			return nil, fmt.Errorf("trace: checkpoint line %d: data after footer", lineNo)
		case lineKind(line) == "footer":
			var f Footer
			if perr := json.Unmarshal(line, &f); perr != nil {
				return nil, bad("footer", perr)
			}
			cd.Footer = &f
		default:
			var rec RunRecord
			if perr := json.Unmarshal(line, &rec); perr != nil {
				return nil, bad("record", perr)
			}
			cd.Records = append(cd.Records, rec)
		}
		cd.validBytes += int64(len(line))
	}
	if !sawManifest {
		return nil, fmt.Errorf("trace: checkpoint has no manifest line")
	}
	if cd.Footer != nil {
		if cd.Footer.Records != len(cd.Records) {
			return nil, fmt.Errorf("trace: checkpoint footer claims %d records, file has %d",
				cd.Footer.Records, len(cd.Records))
		}
		if sum := SumRecords(cd.Records); sum != cd.Footer.Sum {
			return nil, fmt.Errorf("trace: checkpoint checksum mismatch: footer %s, records %s",
				cd.Footer.Sum, sum)
		}
	}
	return cd, nil
}

// ReadCheckpointFile parses the checkpoint at path.
func ReadCheckpointFile(path string) (*CheckpointData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// Checkpoint is an open, appendable checkpoint file. Append is safe
// for concurrent use.
type Checkpoint struct {
	mu        sync.Mutex
	f         *os.File
	enc       *json.Encoder
	records   int
	sum       uint64
	finalized bool
}

// CreateCheckpoint creates (truncating) a checkpoint at path and
// writes its manifest line.
func CreateCheckpoint(path string, m *Manifest) (*Checkpoint, error) {
	if m.Kind == "" {
		m.Kind = "manifest"
	}
	if m.Version == 0 {
		m.Version = CheckpointVersion
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{f: f, enc: json.NewEncoder(f)}
	if err := c.enc.Encode(m); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// ResumeCheckpoint opens the checkpoint at path for appending. A
// missing file starts fresh (CreateCheckpoint); an existing one must
// carry a manifest compatible with m. The already-recorded runs are
// returned so the caller can skip re-executing them; a torn trailing
// line is truncated away so appends start on a clean line boundary. An
// already-finalized checkpoint is returned as-is with Finalized true
// and must not be appended to.
func ResumeCheckpoint(path string, m *Manifest) (*Checkpoint, []RunRecord, error) {
	if m.Kind == "" {
		m.Kind = "manifest"
	}
	if m.Version == 0 {
		m.Version = CheckpointVersion
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		c, cerr := CreateCheckpoint(path, m)
		return c, nil, cerr
	}
	cd, err := ReadCheckpointFile(path)
	if err != nil {
		return nil, nil, err
	}
	if !cd.Manifest.Compatible(m) {
		return nil, nil, fmt.Errorf("trace: checkpoint %s belongs to a different shard or campaign (spec %s shard %d/%d, want spec %s shard %d/%d)",
			path, cd.Manifest.SpecHash, cd.Manifest.Shard, cd.Manifest.Shards,
			m.SpecHash, m.Shard, m.Shards)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Drop any torn trailing line so the next append starts clean.
	if err := f.Truncate(cd.validBytes); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(cd.validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	c := &Checkpoint{
		f:         f,
		enc:       json.NewEncoder(f),
		records:   len(cd.Records),
		finalized: cd.Footer != nil,
	}
	for i := range cd.Records {
		c.sum ^= RecordHash(&cd.Records[i])
	}
	return c, cd.Records, nil
}

// Finalized reports whether the footer has been written.
func (c *Checkpoint) Finalized() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finalized
}

// Append writes one record line. The encoder writes straight to the
// file — one write syscall per run, whole lines only — so every
// completed run is durable before the next starts.
func (c *Checkpoint) Append(rec *RunRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finalized {
		return fmt.Errorf("trace: append to finalized checkpoint")
	}
	if err := c.enc.Encode(rec); err != nil {
		return err
	}
	c.records++
	c.sum ^= RecordHash(rec)
	return nil
}

// Finalize writes the integrity footer, marking the shard complete.
func (c *Checkpoint) Finalize() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finalized {
		return nil
	}
	f := Footer{Kind: "footer", Records: c.records, Sum: fmt.Sprintf("%016x", c.sum)}
	if err := c.enc.Encode(&f); err != nil {
		return err
	}
	c.finalized = true
	return nil
}

// Close closes the underlying file (without finalizing).
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}
