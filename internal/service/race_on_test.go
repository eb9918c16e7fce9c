//go:build race

package service

// raceEnabled reports a -race build. Its sync.Pool drops a quarter of
// all Puts on purpose, so allocation pins over pooled paths cannot hold
// there.
const raceEnabled = true
