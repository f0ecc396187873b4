package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestWriteOpenMetricsValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign_runs_total").Add(42)
	r.Counter("plain_counter").Add(7) // no _total suffix registered
	r.Gauge("campaign_faults_per_sec").Set(123.5)
	h := r.Histogram("campaign_run_wall_seconds", ExponentialBounds(0.001, 4, 8))
	for _, v := range []float64{0.002, 0.01, 0.5, 3, 1000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	out := buf.String()

	st, err := ValidateOpenMetrics(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, out)
	}
	if st.Families != 4 {
		t.Errorf("families = %d, want 4", st.Families)
	}
	// 2 counter samples + 1 gauge + (8 bounds + Inf + sum + count) = 14.
	if st.Samples != 14 {
		t.Errorf("samples = %d, want 14", st.Samples)
	}

	for _, want := range []string{
		"# TYPE campaign_runs counter\n",
		"campaign_runs_total 42\n",
		"# TYPE plain_counter counter\n",
		"plain_counter_total 7\n",
		"campaign_faults_per_sec 123.5\n",
		"campaign_run_wall_seconds_bucket{le=\"+Inf\"} 5\n",
		"campaign_run_wall_seconds_count 5\n",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF:\n%s", out)
	}
}

func TestWriteOpenMetricsEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	if got := buf.String(); got != "# EOF\n" {
		t.Fatalf("empty registry exposition = %q, want %q", got, "# EOF\n")
	}
	if _, err := ValidateOpenMetrics(&buf); err != nil {
		t.Fatalf("empty exposition failed validation: %v", err)
	}
}

func TestValidateOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"missing EOF", "# TYPE a counter\na_total 1\n", "end with # EOF"},
		{"content after EOF", "# EOF\n# TYPE a counter\n", "after # EOF"},
		{"empty line", "# TYPE a counter\n\na_total 1\n# EOF\n", "empty line"},
		{"sample before TYPE", "a_total 1\n# EOF\n", "before any # TYPE"},
		{"counter without _total", "# TYPE a counter\na 1\n# EOF\n", "does not belong"},
		{"foreign sample", "# TYPE a counter\nb_total 1\n# EOF\n", "does not belong"},
		{"interleaved families", "# TYPE a counter\na_total 1\n# TYPE b gauge\nb 1\n# TYPE a counter\n# EOF\n", "declared twice"},
		{"bad family name", "# TYPE 9a counter\n# EOF\n", "invalid metric family name"},
		{"unknown type", "# TYPE a sparkline\n# EOF\n", "unknown metric type"},
		{"bad value", "# TYPE a gauge\na forty\n# EOF\n", "unparseable sample value"},
		{"negative counter", "# TYPE a counter\na_total -3\n# EOF\n", "negative value"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\n# EOF\n", "without an le label"},
		{"bad le bound", "# TYPE h histogram\nh_bucket{le=\"wide\"} 1\n# EOF\n", "unparseable le bound"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n# EOF\n", "not cumulative"},
		{"missing Inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 2\nh_count 2\n# EOF\n", "no le=\"+Inf\""},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 2\nh_count 3\n# EOF\n", "_count 3 != +Inf bucket 2"},
		{"unterminated labels", "# TYPE a gauge\na{x=\"1 2\n# EOF\n", "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateOpenMetrics(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("validator accepted invalid exposition:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateOpenMetricsAcceptsLabelsAndEscapes(t *testing.T) {
	in := "# TYPE h histogram\n" +
		"# HELP h latency\n" +
		"# UNIT h seconds\n" +
		"h_bucket{le=\"0.5\",shard=\"a\\\"b\\\\c\\n\"} 1\n" +
		"h_bucket{le=\"+Inf\"} 2\n" +
		"h_sum 1.5\n" +
		"h_count 2\n" +
		"# EOF\n"
	st, err := ValidateOpenMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatalf("validator rejected valid exposition: %v", err)
	}
	if st.Families != 1 || st.Samples != 4 {
		t.Fatalf("stats = %+v, want 1 family / 4 samples", st)
	}
}

func TestValidateOpenMetricsTrailingHistogram(t *testing.T) {
	// A histogram family last in the exposition must still have its
	// +Inf/_count invariants checked at EOF.
	in := "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 2\nh_count 2\n# EOF\n"
	if _, err := ValidateOpenMetrics(strings.NewReader(in)); err == nil {
		t.Fatal("validator missed a trailing histogram with no +Inf bucket")
	}
}

// The names and values FuzzOpenMetricsExposition draws from: stems under
// every suffix an exposition writes, so registrations collide as often as
// they can, besides names no scraper takes; and values in an order whose
// runs are often, not always, valid histogram bounds.
var (
	fuzzStems    = []string{"a", "h", "a_total", "", "9a", "a-b"}
	fuzzSuffixes = []string{"", "_total", "_count", "_sum", "_bucket", "_created"}
	fuzzValues   = []float64{-1, 0, 0.5, 1, 2, 3, 1e300, math.Inf(1), math.NaN(), math.Inf(-1), math.Copysign(0, -1)}
)

// maxFuzzOps bounds FuzzOpenMetricsExposition's input: a registry of a few
// dozen names already holds every collision, and a longer input only slows
// the minimizer down.
const maxFuzzOps = 64

// FuzzOpenMetricsExposition holds the OpenMetrics writer to its validator:
// the input is a list of four-byte operations (kind, name, a, b), each a
// counter add of a, a gauge set of value a, or a histogram registered with
// bounds drawn from a and observing value b. A registration the registry
// refuses (it panics) is skipped; the exposition of everything it took
// must pass ValidateOpenMetrics. Inputs past maxFuzzOps operations are
// skipped.
func FuzzOpenMetricsExposition(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 1, 1, 3, 0, 2, 7, 1, 4, 2, 7, 1, 2})                         // counter a, gauge h, histogram h_total
	f.Add([]byte{0, 6, 1, 0, 0, 0, 1, 0, 2, 1, 0, 0, 1, 13, 7, 0})                        // counters a_total, a; gauge h_count beside histogram h
	f.Add([]byte{2, 1, 4, 7, 2, 1, 4, 8, 2, 1, 4, 9, 1, 0, 8, 0, 1, 2, 7, 0, 1, 4, 9, 0}) // NaN and ±Inf observations and gauge values, name 9a
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*maxFuzzOps {
			return
		}
		reg := NewRegistry()
		for ; len(ops) >= 4; ops = ops[4:] {
			kind, a, b := ops[0]%3, int(ops[2]), int(ops[3])
			name := fuzzStems[int(ops[1])%len(fuzzStems)] + fuzzSuffixes[int(ops[1])/len(fuzzStems)%len(fuzzSuffixes)]
			unlessRefused(func() {
				switch kind {
				case 0:
					reg.Counter(name).Add(int64(a))
				case 1:
					reg.Gauge(name).Set(fuzzValues[a%len(fuzzValues)])
				case 2:
					bounds := make([]float64, 1+a%4)
					for i := range bounds {
						bounds[i] = fuzzValues[(a/4+i)%len(fuzzValues)]
					}
					reg.Histogram(name, bounds).Observe(fuzzValues[b%len(fuzzValues)])
				}
			})
		}
		var buf bytes.Buffer
		if err := reg.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateOpenMetrics(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("the registry wrote an exposition its validator refuses: %v\n%s", err, buf.Bytes())
		}
	})
}

// unlessRefused runs a registration and its update; a registration the
// registry refuses is skipped, any other panic is not.
func unlessRefused(f func()) {
	defer func() {
		if p := recover(); p != nil {
			if msg, ok := p.(string); !ok || !strings.HasPrefix(msg, "metrics: ") {
				panic(p)
			}
		}
	}()
	f()
}
