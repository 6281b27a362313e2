package main

import (
	"context"
	"testing"

	"unico/internal/mapsearch"
	"unico/internal/ppa"
)

// plainJob implements only mapsearch.Searcher.
type plainJob struct{ advances int }

func (j *plainJob) Advance(b int)             { j.advances += b }
func (j *plainJob) History() ppa.History      { return nil }
func (j *plainJob) RawHistory() ppa.History   { return nil }
func (j *plainJob) Spent() int                { return j.advances }
func (j *plainJob) Best() (ppa.Metrics, bool) { return ppa.Metrics{}, false }

// remoteLike also offers the optional interfaces a remote job has.
type remoteLike struct {
	plainJob
	ctxAdvances int
	closed      int
	sawParent   bool
}

func (j *remoteLike) AdvanceContext(ctx context.Context, b int) {
	j.ctxAdvances += b
	_, j.sawParent = ctx.Value(parentKey{}).(int64)
}

func (j *remoteLike) Close() error { j.closed++; return nil }

func TestTracedJobForwardsOptionalInterfaces(t *testing.T) {
	rec := newRecorder("test")
	inner := &remoteLike{}
	var s mapsearch.Searcher = &tracedJob{inner: inner, rec: rec}

	mapsearch.AdvanceSearcher(context.Background(), s, 3)
	if inner.ctxAdvances != 3 || inner.advances != 0 {
		t.Fatalf("AdvanceContext not forwarded: ctx=%d plain=%d", inner.ctxAdvances, inner.advances)
	}
	if !inner.sawParent {
		t.Fatal("advance span ID missing from the forwarded context")
	}
	if err := s.(interface{ Close() error }).Close(); err != nil || inner.closed != 1 {
		t.Fatalf("Close not forwarded: err=%v closed=%d", err, inner.closed)
	}
	if n, _ := rec.sum("mapsearch.advance"); n != 1 {
		t.Fatalf("advance spans = %d, want 1", n)
	}
	if n, _ := rec.sum("mapsearch.close"); n != 1 {
		t.Fatalf("close spans = %d, want 1", n)
	}
}

func TestTracedJobFallsBackLikeCore(t *testing.T) {
	rec := newRecorder("test")
	inner := &plainJob{}
	var s mapsearch.Searcher = &tracedJob{inner: inner, rec: rec}

	mapsearch.AdvanceSearcher(context.Background(), s, 2)
	if inner.advances != 2 {
		t.Fatalf("plain Advance not used: %d", inner.advances)
	}
	if err := s.(interface{ Close() error }).Close(); err != nil {
		t.Fatalf("Close on a searcher without one: %v", err)
	}
	if n, _ := rec.sum("mapsearch.close"); n != 0 {
		t.Fatalf("close spans = %d for a searcher without Close", n)
	}
}
