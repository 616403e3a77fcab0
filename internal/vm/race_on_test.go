//go:build race

package vm

// raceEnabled reports whether the race detector is on: it allocates on its
// own, so allocation counts do not hold under it.
const raceEnabled = true
