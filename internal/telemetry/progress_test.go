package telemetry

import "testing"

// TestDefaultProgressSink verifies the process-wide sink receives reports
// and can be removed.
func TestDefaultProgressSink(t *testing.T) {
	var got []SearchProgress
	SetDefaultProgress(func(p SearchProgress) { got = append(got, p) })
	defer SetDefaultProgress(nil)
	EmitProgress(SearchProgress{Iter: 1, SimHours: 0.5})
	EmitProgress(SearchProgress{Iter: 2, SimHours: 1.5})
	if len(got) != 2 || got[1].Iter != 2 {
		t.Fatalf("sink got %+v", got)
	}
	SetDefaultProgress(nil)
	EmitProgress(SearchProgress{Iter: 3})
	if len(got) != 2 {
		t.Fatal("removed sink still invoked")
	}
}
