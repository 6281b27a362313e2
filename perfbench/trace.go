package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed span IDs. rootID is the co-search (core.RunContext). rungID stands
// for the sh.rung phase, which the program's own profiler times; advance
// spans hang under it. routerID stands for the router's requests as a
// whole: a shard cannot tell which router request forwarded to it.
const (
	rootID   = 1
	rungID   = 2
	routerID = 3
)

// span is one recorded interval. Times are nanoseconds since the recorder
// was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
	Req    string `json:"req,omitempty"`
	Status int    `json:"status,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps a traced co-search's spans in memory and the busy
// counters of its fine-grained layers.
type recorder struct {
	run    string
	t0     time.Time
	nextID atomic.Int64
	// master is the sequential master-side span now open (new_job, close,
	// a sink write), or rootID. Remote calls made without an advance span
	// in their context hang under it.
	master atomic.Int64
	// spent is the budget the wrapped searchers report as spent.
	spent atomic.Int64

	maestro, camodel, cache busy

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder {
	r := &recorder{run: run, t0: time.Now()}
	r.nextID.Store(routerID)
	r.master.Store(rootID)
	return r
}

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span, start, end time.Time) {
	s.Start = int64(start.Sub(r.t0))
	s.End = int64(end.Sub(r.t0))
	if s.Run == "" {
		s.Run = r.run
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// child runs f as a sequential child span of the co-search; remote calls f
// makes without an advance span in their context hang under it.
func (r *recorder) child(name string, f func() error) error {
	id := r.newID()
	r.master.Store(id)
	start := time.Now()
	err := f()
	r.add(span{ID: id, Parent: rootID, Name: name}, start, time.Now())
	r.master.Store(rootID)
	return err
}

// write saves the spans as JSON lines after an environment header line.
func (r *recorder) write(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"type": "env", "env": env}); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sum totals the count and duration of the spans with a name.
func (r *recorder) sum(name string) (n int, secs float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name {
			n++
			secs += s.seconds()
		}
	}
	return n, secs
}

// treeNode is one line of the printed phase tree.
type treeNode struct {
	name  string
	count int
	total float64 // wall seconds, or busy seconds summed over goroutines
	self  float64
	busy  bool // a parallel child: busy time, not part of its parent's wall
	kids  []*treeNode
}

// printTree renders the rooted tree of one traced co-search (or the sum of
// several): the root's sequential children sum to its wall time together
// with the root's self time; parallel children are marked as busy time.
func printTree(w io.Writer, n *treeNode, indent string) {
	kind := "wall"
	if n.busy {
		kind = "busy"
	}
	fmt.Fprintf(w, "trace %s%-22s n=%-7d %s=%9.4fs self=%9.4fs\n", indent, n.name, n.count, kind, n.total, n.self)
	for _, k := range n.kids {
		printTree(w, k, indent+"  ")
	}
}
