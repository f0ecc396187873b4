package stats

import (
	"fmt"
	"io"
	"strings"
)

// Heatmap renders per-node values of a W×H mesh as an ASCII grid, rows
// printed top-down (highest y first, matching the paper's bottom-left
// origin). Values are normalized to a 0–9 scale with '.' for zero.
type Heatmap struct {
	Title string
	W, H  int
	vals  []float64
}

// NewHeatmap creates a zeroed heatmap over a W×H mesh.
func NewHeatmap(title string, w, h int) *Heatmap {
	return &Heatmap{Title: title, W: w, H: h, vals: make([]float64, w*h)}
}

// Add accumulates v at node id (row-major from the bottom-left).
func (h *Heatmap) Add(node int, v float64) {
	if node >= 0 && node < len(h.vals) {
		h.vals[node] += v
	}
}

// Max returns the largest accumulated value.
func (h *Heatmap) Max() float64 {
	m := 0.0
	for _, v := range h.vals {
		if v > m {
			m = v
		}
	}
	return m
}

// Render writes the grid to w.
func (h *Heatmap) Render(w io.Writer) {
	if h.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", h.Title)
	}
	max := h.Max()
	for y := h.H - 1; y >= 0; y-- {
		var sb strings.Builder
		for x := 0; x < h.W; x++ {
			v := h.vals[y*h.W+x]
			switch {
			case v == 0:
				sb.WriteString(" .")
			case max == 0:
				sb.WriteString(" 0")
			default:
				level := int(9 * v / max)
				if level > 9 {
					level = 9
				}
				fmt.Fprintf(&sb, " %d", level)
			}
		}
		fmt.Fprintf(w, "%s   y=%d\n", sb.String(), y)
	}
	fmt.Fprintf(w, "%s\n", strings.Repeat(" x", h.W))
	fmt.Fprintf(w, "(scale: . = 0, 9 = %.0f)\n", max)
}
