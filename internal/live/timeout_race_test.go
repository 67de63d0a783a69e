//go:build race

package live

import "time"

func init() {
	convergeTimeout = 8 * time.Minute
	earlyPropagationBound = 10 * time.Second
}
