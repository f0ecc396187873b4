package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// OpenMetricsContentType is the content type of a WriteOpenMetrics
// exposition, per the OpenMetrics 1.0 spec.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics writes the registry snapshot in OpenMetrics text
// exposition format: one `# TYPE` line per metric family, counter
// samples with the mandatory `_total` suffix, histograms expanded into
// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`, and the
// terminal `# EOF`. The output is what Prometheus scrapes from
// /metrics (and what ValidateOpenMetrics lints in CI).
//
// Family naming: a counter registered as "foo_total" is the family
// "foo" with sample "foo_total"; a counter without the suffix becomes
// the family as-is with "_total" appended to its sample, so every
// counter exposition is spec-clean either way. The registry refuses a
// second instrument that would write a family or sample name already
// written, so every family appears once and every sample name is its
// own family's.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	s := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, c := range s.Counters {
		family := counterFamily(c.Name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", family)
		fmt.Fprintf(bw, "%s_total %d\n", family, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(bw, "# TYPE %s gauge\n", g.Name)
		fmt.Fprintf(bw, "%s %s\n", g.Name, formatOMValue(g.Value))
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(bw, "# TYPE %s histogram\n", h.Name)
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", h.Name, formatOMValue(b), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", h.Name, formatOMValue(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", h.Name, h.Count)
	}
	fmt.Fprintf(bw, "# EOF\n")
	return bw.Flush()
}

// counterFamily is the family a counter registered as name exposes.
func counterFamily(name string) string {
	return strings.TrimSuffix(name, "_total")
}

// formatOMValue renders a float in OpenMetrics' number syntax (shortest
// round-trip form; exponents are permitted by the ABNF).
func formatOMValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// OMStats summarizes a validated exposition.
type OMStats struct {
	Families int
	Samples  int
}

var omNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// omSuffixes lists the sample-name suffixes each family type permits.
var omSuffixes = map[string][]string{
	"counter":   {"_total", "_created"},
	"gauge":     {""},
	"histogram": {"_bucket", "_sum", "_count", "_created"},
	"summary":   {"", "_sum", "_count", "_created"},
	"unknown":   {""},
	"info":      {"_info"},
	"stateset":  {""},
}

// ValidateOpenMetrics is a promtool-style lint over an OpenMetrics text
// exposition, strict enough to catch the mistakes that break real
// scrapers: missing or non-final `# EOF`, samples not belonging to the
// preceding TYPE family, interleaved or repeated families, a sample
// repeated within its family (same name and labels), counter samples
// without `_total`, histograms without a `+Inf` bucket, with `le` bounds
// that repeat or do not increase, or with non-cumulative bucket counts,
// and unparseable values. A histogram's checks hold per series: its
// samples' labels without `le`.
func ValidateOpenMetrics(r io.Reader) (OMStats, error) {
	var st OMStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	seen := make(map[string]bool)
	var family, ftype string
	sawEOF := false
	lineNo := 0

	type histState struct {
		lastLE     float64
		lastBucket int64
		haveBucket bool
		haveInf    bool
		infValue   int64
		count      int64
		haveCount  bool
	}
	// The current family's samples (name and labels), and its histogram
	// series by labels without le, in the order they first appeared.
	samples := make(map[string]bool)
	hists := make(map[string]*histState)
	var series []string
	finishHistogram := func() error {
		for _, key := range series {
			hist := hists[key]
			if !hist.haveBucket {
				continue
			}
			if !hist.haveInf {
				return fmt.Errorf("histogram %q%s has buckets but no le=\"+Inf\" bucket", family, key)
			}
			if hist.haveCount && hist.count != hist.infValue {
				return fmt.Errorf("histogram %q%s: _count %d != +Inf bucket %d", family, key, hist.count, hist.infValue)
			}
		}
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return st, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if line == "" {
			return st, fmt.Errorf("line %d: empty line (not allowed by OpenMetrics)", lineNo)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || parts[0] != "#" {
				return st, fmt.Errorf("line %d: malformed comment line %q", lineNo, line)
			}
			switch parts[1] {
			case "TYPE":
				if err := finishHistogram(); err != nil {
					return st, fmt.Errorf("line %d: %v", lineNo, err)
				}
				if len(parts) != 4 {
					return st, fmt.Errorf("line %d: TYPE needs a family name and a type", lineNo)
				}
				name, typ := parts[2], parts[3]
				if !omNameRe.MatchString(name) {
					return st, fmt.Errorf("line %d: invalid metric family name %q", lineNo, name)
				}
				if _, ok := omSuffixes[typ]; !ok {
					return st, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if seen[name] {
					return st, fmt.Errorf("line %d: metric family %q declared twice (interleaved families)", lineNo, name)
				}
				seen[name] = true
				family, ftype = name, typ
				clear(samples)
				clear(hists)
				series = series[:0]
				st.Families++
			case "HELP", "UNIT":
				if len(parts) < 3 || !omNameRe.MatchString(parts[2]) {
					return st, fmt.Errorf("line %d: malformed %s line", lineNo, parts[1])
				}
			default:
				return st, fmt.Errorf("line %d: unknown comment keyword %q", lineNo, parts[1])
			}
			continue
		}

		// Sample line: name[{labels}] value [timestamp].
		name, labels, rest, err := splitOMSample(line)
		if err != nil {
			return st, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !omNameRe.MatchString(name) {
			return st, fmt.Errorf("line %d: invalid sample name %q", lineNo, name)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return st, fmt.Errorf("line %d: want `name value [timestamp]`, got %q", lineNo, line)
		}
		val, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return st, fmt.Errorf("line %d: unparseable sample value %q", lineNo, fields[0])
		}
		if family == "" {
			return st, fmt.Errorf("line %d: sample %q before any # TYPE line", lineNo, name)
		}
		suffix, ok := omSampleSuffix(name, family, ftype)
		if !ok {
			return st, fmt.Errorf("line %d: sample %q does not belong to %s family %q", lineNo, name, ftype, family)
		}
		st.Samples++
		sample := name + omLabelKey(labels, "")
		if samples[sample] {
			return st, fmt.Errorf("line %d: sample %s repeated in family %q", lineNo, sample, family)
		}
		samples[sample] = true

		var hist *histState
		if ftype == "histogram" {
			key := omLabelKey(labels, "le")
			if hist = hists[key]; hist == nil {
				hist = &histState{}
				hists[key] = hist
				series = append(series, key)
			}
		}
		if ftype == "histogram" && suffix == "_bucket" {
			le, ok := labels["le"]
			if !ok {
				return st, fmt.Errorf("line %d: histogram bucket %q without an le label", lineNo, name)
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(bound) {
				return st, fmt.Errorf("line %d: unparseable le bound %q", lineNo, le)
			}
			if hist.haveBucket && bound <= hist.lastLE {
				return st, fmt.Errorf("line %d: histogram %q le bound %q does not increase on %s", lineNo, family, le, formatOMValue(hist.lastLE))
			}
			iv := int64(val)
			if le == "+Inf" {
				hist.haveInf = true
				hist.infValue = iv
			}
			if hist.haveBucket && iv < hist.lastBucket {
				return st, fmt.Errorf("line %d: histogram %q bucket counts not cumulative (%d after %d)",
					lineNo, family, iv, hist.lastBucket)
			}
			hist.haveBucket = true
			hist.lastLE = bound
			hist.lastBucket = iv
		}
		if ftype == "histogram" && suffix == "_count" {
			hist.count = int64(val)
			hist.haveCount = true
		}
		if ftype == "counter" && val < 0 {
			return st, fmt.Errorf("line %d: counter %q has negative value %g", lineNo, name, val)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if err := finishHistogram(); err != nil {
		return st, err
	}
	if !sawEOF {
		return st, fmt.Errorf("exposition does not end with # EOF")
	}
	return st, nil
}

// omSampleSuffix reports whether sample name belongs to family of the
// given type, returning the suffix it matched.
func omSampleSuffix(name, family, ftype string) (string, bool) {
	if !strings.HasPrefix(name, family) {
		return "", false
	}
	got := name[len(family):]
	for _, s := range omSuffixes[ftype] {
		if got == s {
			return s, true
		}
	}
	return "", false
}

// omLabelKey renders a label set, less the label skip, in one canonical
// form: sorted by name, values quoted, "" for an empty set.
func omLabelKey(labels map[string]string, skip string) string {
	names := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + "=" + strconv.Quote(labels[k]))
	}
	return "{" + b.String() + "}"
}

// splitOMSample splits a sample line into name, parsed labels and the
// remainder (value and optional timestamp).
func splitOMSample(line string) (name string, labels map[string]string, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		end := strings.IndexByte(line, '}')
		if end < brace {
			return "", nil, "", fmt.Errorf("unterminated label set in %q", line)
		}
		name = line[:brace]
		labels, err = parseOMLabels(line[brace+1 : end])
		if err != nil {
			return "", nil, "", err
		}
		rest = strings.TrimPrefix(line[end+1:], " ")
		return name, labels, rest, nil
	}
	if space < 0 {
		return "", nil, "", fmt.Errorf("sample line %q has no value", line)
	}
	return line[:space], nil, line[space+1:], nil
}

// parseOMLabels parses `k="v",k2="v2"`. Escapes inside values are
// limited to \\, \" and \n — all this repository emits and all the
// lint needs.
func parseOMLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label %q missing =", s)
		}
		key := s[:eq]
		if !omNameRe.MatchString(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case '\\', '"':
					val.WriteByte(s[i])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("unsupported escape \\%c in label %q", s[i], key)
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %q", key)
		}
		out[key] = val.String()
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}
