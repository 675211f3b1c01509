//go:build race

package mpi

// raceEnabled reports whether the race detector is on: it allocates
// behind the code's back, so allocation bounds do not hold under it.
const raceEnabled = true
