package stats

import (
	"io"
	"strings"
	"testing"
)

// render returns what r writes.
func render(r interface{ Render(io.Writer) }) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

func TestHeatmapRendering(t *testing.T) {
	h := NewHeatmap("demo", 3, 2)
	h.Add(0, 9)
	h.Add(4, 3)
	h.Add(4, 1.5)
	if h.Max() != 9 {
		t.Fatalf("Max = %f", h.Max())
	}
	out := render(h)
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, 2 rows, axis, scale
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Top row is y=1: node 4 = (1,1) → level 9*4.5/9 = 4.
	if !strings.Contains(lines[1], "4") || !strings.HasSuffix(lines[1], "y=1") {
		t.Fatalf("row y=1 wrong: %q", lines[1])
	}
	// Bottom row y=0: node 0 at level 9.
	if !strings.Contains(lines[2], "9") {
		t.Fatalf("row y=0 wrong: %q", lines[2])
	}
	// Out-of-range adds are ignored.
	h.Add(99, 5)
	if h.Max() != 9 {
		t.Fatal("out-of-range Add changed state")
	}
}

func TestHeatmapAllZero(t *testing.T) {
	h := NewHeatmap("", 2, 2)
	out := render(h)
	if strings.Contains(out, "==") || !strings.Contains(out, ".") {
		t.Fatalf("zero heatmap rendering:\n%s", out)
	}
}
