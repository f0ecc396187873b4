// Package stats provides the small statistical and formatting helpers
// the benchmark harness uses to regenerate the paper's tables and
// figures: empirical CDFs, histograms and fixed-width text tables.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over int64 samples.
type CDF struct {
	sorted []int64
}

// NewCDF builds a CDF from the samples (copied, then sorted).
func NewCDF(samples []int64) *CDF {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// AtOrBelow returns the fraction of samples <= x (0 when empty).
func (c *CDF) AtOrBelow(x int64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Percentile returns the smallest sample value v such that at least
// p (in [0,1]) of the samples are <= v. It panics on an empty CDF.
func (c *CDF) Percentile(p float64) int64 {
	if len(c.sorted) == 0 {
		panic("stats: percentile of empty CDF")
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(p*float64(len(c.sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Max returns the largest sample (0 when empty).
func (c *CDF) Max() int64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean returns the sample mean (0 when empty).
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range c.sorted {
		sum += float64(v)
	}
	return sum / float64(len(c.sorted))
}

// Pct renders part/whole as a percentage (0 when whole is 0).
func Pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Table is a fixed-width text table, the output format of the
// experiment regenerators.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
	}
	for _, r := range t.rows {
		line(r)
	}
}
