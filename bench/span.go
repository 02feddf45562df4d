package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The spans of one request
// (or one block of library operations) share an ID; Parent names the span of
// the same ID that caused this one, empty for the outermost. Times are
// nanoseconds since the recorder was made.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog is an append-only list of spans. A caller goroutine owns one
// outright; the embedded server's handler shares one between connection
// goroutines, which is what mu is for.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// recorder keeps every span of a traced run in memory; nothing is written
// until the run is over. A nil *recorder means tracing is off.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newLog returns a fresh log that all() will include; nil on a nil recorder.
func (r *recorder) newLog() *spanLog {
	if r == nil {
		return nil
	}
	l := &spanLog{}
	r.mu.Lock()
	r.logs = append(r.logs, l)
	r.mu.Unlock()
	return l
}

// reset drops every span recorded so far: a traced run calls it when its
// warm-up ends.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, l := range r.logs {
		l.mu.Lock()
		l.spans = l.spans[:0]
		l.mu.Unlock()
	}
	r.mu.Unlock()
}

// since is the recorder's clock.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// all returns every recorded span, ordered by start time.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	var out []span
	r.mu.Lock()
	for _, l := range r.logs {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfRow is one line of the self-time table: for every span of one name,
// the median duration and the median self time, a span's duration minus the
// part its child spans (same ID, Parent naming it) cover.
type selfRow struct {
	Name          string
	Count         int
	DurUs, SelfUs float64
}

// selfTimes computes the self-time table from a traced run's spans.
func selfTimes(spans []span) []selfRow {
	type key struct {
		id   uint64
		name string
	}
	covered := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			covered[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		dur := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], float64(dur)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(dur-covered[key{s.ID, s.Name}])/1e3)
	}
	out := make([]selfRow, 0, len(durs))
	for _, name := range sortedKeys(durs) {
		out = append(out, selfRow{Name: name, Count: len(durs[name]), DurUs: median(durs[name]), SelfUs: median(selfs[name])})
	}
	return out
}

// printSelfTimes prints the table a traced run ends with.
func printSelfTimes(w io.Writer, title string, rows []selfRow) {
	fmt.Fprintf(w, "%s: spans by name\n  %-28s %10s %14s %14s\n", title, "name", "count", "median us", "median self us")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %10d %14.3f %14.3f\n", r.Name, r.Count, r.DurUs, r.SelfUs)
	}
}
