package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// DecodeTolerant parses an NDJSON stream of T, tolerating a truncated
// final line — the normal tail shape of any append-only stream whose
// writer was killed mid-record (shard checkpoints, span streams). Complete records before the truncation are returned with a
// nil error; a malformed line with more data after it is corruption,
// not a torn tail, and is reported.
func DecodeTolerant[T any](r io.Reader) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(b, &rec); err != nil {
			if !sc.Scan() {
				return out, nil
			}
			return out, fmt.Errorf("trace: bad NDJSON record on line %d: %v", line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}
