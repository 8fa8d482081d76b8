package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one traced interval, recorded by the benchmark around a call
// into a module's public function. An aggregate span folds Count calls
// made under one parent (generator draws) into one record: Busy is then
// the summed call time inside [Start, End]; for a plain span Busy is
// End - Start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	spans []span
}

// add records a finished span and returns its ID (IDs start at 1; 0 is
// "no parent").
func (t *tracer) add(trace, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s, e := start.UnixNano(), end.UnixNano()
	if e < s {
		e = s
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: s, End: e, Busy: e - s})
	return len(t.spans)
}

// aggregate records count calls under parent whose summed duration is busy.
func (t *tracer) aggregate(trace, name string, parent int, start, end time.Time, count int64, busy time.Duration) {
	if t == nil || count == 0 {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Count: count, Busy: int64(busy)})
}

// reparent moves a recorded span under a parent recorded after it (the
// job root span is only known once the job has ended).
func (t *tracer) reparent(id, parent int) {
	if t != nil && id > 0 {
		t.spans[id-1].Parent = parent
	}
}

// module names the program module a span was recorded around: the part
// of its name before the first dot. Root spans belong to the benchmark.
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes returns each span's self time: its busy time minus the part
// its children cover. Plain children count by the union of their
// intervals clipped to the parent; aggregate children count by their
// summed busy time.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Busy - covered(s, spans, kids[s.ID])
	}
	return self
}

// covered is the part of parent's interval its children account for.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ s, e int64 }
	var ivs []iv
	var agg int64
	for _, k := range kids {
		c := spans[k]
		if c.Count > 0 {
			agg += c.Busy
			continue
		}
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
	var union, end int64
	for _, v := range ivs {
		if v.s > end {
			union += v.e - v.s
			end = v.e
		} else if v.e > end {
			union += v.e - end
			end = v.e
		}
	}
	return union + agg
}

// moduleShares sums self time per module over the root spans' total
// time.
func moduleShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	var total int64
	per := make(map[string]int64)
	for i, s := range spans {
		if s.Parent == 0 {
			total += s.Busy
		}
		per[module(s.Name)] += self[i]
	}
	out := make(map[string]float64, len(per))
	for m, v := range per {
		out[m] = ratio(float64(v), float64(total))
	}
	return out
}

// checkNesting reports the first span that is not inside its parent or
// whose children cover more than its own busy time.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if s.Parent > len(spans) || s.Parent == s.ID {
			return fmt.Errorf("span %d (%s): bad parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Busy > p.Busy {
			return fmt.Errorf("span %d (%s) [%d,%d] busy %d exceeds parent %s [%d,%d] busy %d",
				s.ID, s.Name, s.Start, s.End, s.Busy, p.Name, p.Start, p.End, p.Busy)
		}
	}
	for i, self := range selfTimes(spans) {
		if self < 0 {
			return fmt.Errorf("span %d (%s): children cover more than its %d ns", spans[i].ID, spans[i].Name, spans[i].Busy)
		}
	}
	return nil
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
