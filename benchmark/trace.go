package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Spans of one statement share Stmt; Parent names the span that
// caused this one ("" for the root).
const (
	spanClient  = "client.request" // root of a boundary trace
	spanServer  = "server.handler" // around server.NewHandler
	spanRouter  = "shard.router"   // around shard.NewHandler
	spanLeg     = "shard.leg"      // around each shard's handler
	spanReplay  = "replay.statement"
	spanReplayP = "replay." // prefix of one layer call under spanReplay
)

// span is one timed interval at a layer boundary, with the counts taken at
// the same boundary.
type span struct {
	Stmt    int64  `json:"stmt"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"` // since the recorder's origin
	End     int64  `json:"end_ns"`
	Path    string `json:"path,omitempty"`
	Shape   int    `json:"shape,omitempty"`
	Rows    int    `json:"rows,omitempty"`
	Flushes int32  `json:"flushes,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin   time.Time
	on       atomic.Bool // boundary middleware records only while set
	seq      atomic.Int64
	inFlight atomic.Int64 // statement the single traced client is waiting on

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.origin).Nanoseconds() }

func (r *recorder) nextStmt() int64 {
	id := r.seq.Add(1)
	r.inFlight.Store(id)
	return id
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byStatement groups the recorded spans per statement id.
func (r *recorder) byStatement() map[int64][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range r.spans {
		out[s.Stmt] = append(out[s.Stmt], s)
	}
	return out
}

// writeFile dumps every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns, for each span of one statement, its duration minus the
// part of its interval that its child spans cover. Children may overlap
// (parallel scatter legs): the covered part is the union of their
// intervals, clipped to the parent.
func selfTimes(stmt []span) []int64 {
	self := make([]int64, len(stmt))
	for i, p := range stmt {
		var kids [][2]int64
		for j, c := range stmt {
			if j == i || c.Parent != p.Name {
				continue
			}
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		self[i] = p.dur() - unionLength(kids)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := int64(math.MinInt64)
	for _, x := range iv {
		switch {
		case x[0] > end:
			total += x[1] - x[0]
			end = x[1]
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
