package live

import "time"

// convergeTimeout bounds cluster convergence waits in tests. The race
// detector slows gob encoding and scheduling by an order of magnitude on
// loaded single-CPU hosts, so race builds (timeout_race_test.go) extend it.
var convergeTimeout = 90 * time.Second

// earlyPropagationBound is how long one write may take to reach every server
// of a 64-server federation by early rounds alone; race builds extend it too.
var earlyPropagationBound = time.Second
