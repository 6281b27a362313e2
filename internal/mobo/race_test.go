//go:build race

package mobo

// The race detector makes sync.Pool drop pooled items at random, so pooled
// scratch is re-allocated and allocation counts are meaningless.
func init() { raceEnabled = true }
