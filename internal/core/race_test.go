//go:build race

package core

// raceEnabled reports a -race build, whose detector drops sync.Pool
// entries at random and so distorts allocation counts.
const raceEnabled = true
