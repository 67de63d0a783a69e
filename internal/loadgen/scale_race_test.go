//go:build race

package loadgen

import "time"

func init() {
	partitionQueries = 150
	partitionMinDrive = 7 * time.Second
	// A slower fabric tick keeps race-detector scheduling delays from
	// reading as missed reports, which would spiral into spurious
	// elections and merge thrash.
	partitionTick = 100 * time.Millisecond
	writeQueries = 100
	writeMinDrive = 4 * time.Second
}
