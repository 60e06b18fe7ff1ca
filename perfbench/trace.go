package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Times are
// nanoseconds since the tracer's epoch; parent is the index of the span that
// caused this one (-1 for a root); key is the round, job or request id the
// span belongs to; tid groups spans by the worker or caller that ran them.
type span struct {
	name       string
	start, end int64
	parent     int32
	key        int64
	tid        int32
}

// tracer keeps spans in memory for the whole run; they are summarized into
// per-layer metrics and written out as Chrome trace-event JSON at exit. A nil
// *tracer records nothing, so untraced passes pay only a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, key int64, tid int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: parent, key: key, tid: tid})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// add records an already-finished span from wall-clock instants.
func (t *tracer) add(name string, start, end time.Time, parent int32, key int64, tid int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
		parent: parent, key: key, tid: tid,
	})
	return int32(len(t.spans) - 1)
}

// layerStats summarizes the closed spans of one name.
type layerStats struct {
	count int
	busy  time.Duration
	durs  []time.Duration
}

// stats groups closed spans by name.
func (t *tracer) stats() map[string]*layerStats {
	out := map[string]*layerStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		d := time.Duration(s.end - s.start)
		ls.count++
		ls.busy += d
		ls.durs = append(ls.durs, d)
	}
	return out
}

// quantile is the nearest-rank q-quantile of the durations in milliseconds,
// 0 when there are none.
func (ls *layerStats) quantile(q float64) float64 {
	if ls == nil {
		return 0
	}
	return quantileMS(ls.durs, q)
}

func (ls *layerStats) busySeconds() float64 {
	if ls == nil {
		return 0
	}
	return ls.busy.Seconds()
}

func (ls *layerStats) n() int {
	if ls == nil {
		return 0
	}
	return ls.count
}

// writeChrome writes every closed span as a Chrome trace-event "complete"
// event, which Perfetto and chrome://tracing open directly. meta lands in the
// file's metadata object (the machine fingerprint).
func (t *tracer) writeChrome(path string, meta any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		if !first {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		ev := event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": i, "parent": s.parent, "key": s.key},
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, `],"metadata":%s}`+"\n", metaJSON); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
