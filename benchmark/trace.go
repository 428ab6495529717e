package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the harness around the call.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// ID is shared by the spans of one batch or one update.
	ID int `json:"id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced twin of a replay runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

// flush writes the spans to dir/trace-<workload>.json.
func (t *tracer) flush(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for the spans recorded from index from on, each span
// name's self time under the roots called root: its spans' durations minus the
// parts their children cover.
func (t *tracer) selfTimes(from int, root string) map[string]int64 {
	under := make([]bool, len(t.spans))
	self := map[string]int64{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		under[i] = s.Name == root && s.Parent < 0 || s.Parent >= from && under[s.Parent]
		if !under[i] {
			continue
		}
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// row is one line of a waterfall: a layer and its time per packet or update.
type row struct {
	label string
	v     float64
}

// selfRows turns self times into rows, largest first. per divides nanoseconds
// into the printed unit.
func selfRows(self map[string]int64, root string, per float64) []row {
	var rows []row
	for n, ns := range self {
		label := n
		if n == root {
			label += " (harness glue)"
		}
		rows = append(rows, row{label, float64(ns) / per})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	return rows
}

// waterfall prints every layer's time and share, their sum, and the remainder
// against the end-to-end figure the spans should explain. The remainder is
// printed, never hidden: splitting it needs spans inside the program.
func waterfall(w io.Writer, title, unit string, rows []row, endToEnd float64, endToEndName, remainderIs string) (sum float64) {
	line := func(label string, v float64) {
		fmt.Fprintf(w, "  %-46s %10.3f  %5.1f%%\n", label, v, 100*v/endToEnd)
	}
	fmt.Fprintf(w, "\nwaterfall: %s (%s)\n", title, unit)
	for _, r := range rows {
		line(r.label, r.v)
		sum += r.v
	}
	line("span sum", sum)
	line("unattributed: "+remainderIs, endToEnd-sum)
	line(endToEndName, endToEnd)
	return sum
}
