package live

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/query"
	"roads/internal/wire"
)

// admissionMaxBuckets is the ceiling of the per-requester bucket map. At
// the ceiling, buckets idle long enough to have refilled are reaped to make
// room; when that frees nothing, new identities are charged to the shared
// anonymous bucket instead of getting their own — so an adversary minting
// requester identities costs neither unbounded memory nor a scan per query,
// and throttles itself.
const admissionMaxBuckets = 4096

// tokenBucket is one requester's admission budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// admission is the per-requester admission controller: a lazily built map
// of token buckets refilled at Config.AdmissionRate queries/second up to
// Config.AdmissionBurst. High-priority requesters are never shed; everyone
// else pays one token per query and is shed to a coarse summary-only answer
// once the bucket runs dry (see handleQuery).
type admission struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	// anon is the one bucket every query without a requester identity
	// shares, and the one identities past the ceiling are charged to.
	anon tokenBucket
	// nextReap is the earliest time a reap at the ceiling can free
	// anything again: a reap that found every bucket recently used is not
	// repeated until one of them could have gone idle.
	nextReap time.Time

	admitted atomic.Uint64
	shed     atomic.Uint64
}

// newAdmission builds the controller (rate 0 = disabled → nil). A zero
// burst defaults to 2×rate, floored at 1 — enough slack that a compliant
// requester's natural burstiness is not shed.
func newAdmission(rate float64, burst int) *admission {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst == 0 {
		b = 2 * rate
	}
	if b < 1 {
		b = 1
	}
	return &admission{rate: rate, burst: b, buckets: make(map[string]*tokenBucket),
		anon: tokenBucket{tokens: b, last: time.Now()}}
}

// admit charges the requester one query and reports whether it may run,
// counting the outcome. Priority high always runs; an empty requester
// identity shares one anonymous bucket, and so do new identities arriving
// while the map is full of recently used buckets.
func (a *admission) admit(requester string, priority uint8) bool {
	if priority == wire.PriorityHigh {
		a.admitted.Add(1)
		return true
	}
	now := time.Now()
	a.mu.Lock()
	b := &a.anon
	if requester != "" {
		if known, ok := a.buckets[requester]; ok {
			b = known
		} else if len(a.buckets) < admissionMaxBuckets || a.reapLocked(now) {
			b = &tokenBucket{tokens: a.burst, last: now}
			a.buckets[requester] = b
		}
	}
	b.tokens += now.Sub(b.last).Seconds() * a.rate
	if b.tokens > a.burst {
		b.tokens = a.burst
	}
	b.last = now
	admitted := b.tokens >= 1
	if admitted {
		b.tokens--
	}
	a.mu.Unlock()
	if admitted {
		a.admitted.Add(1)
	} else {
		a.shed.Add(1)
	}
	return admitted
}

// reapLocked drops buckets idle long enough to have refilled completely —
// indistinguishable from fresh ones, so removing them changes no admission
// decision — and reports whether the map has room again. A reap that frees
// nothing is not retried before a bucket could have gone idle, so a spray of
// identities pays one scan per idle window, not one per query.
func (a *admission) reapLocked(now time.Time) bool {
	if now.Before(a.nextReap) {
		return false
	}
	idle := time.Duration(float64(time.Second) * (a.burst / a.rate))
	for id, b := range a.buckets {
		if now.Sub(b.last) > idle {
			delete(a.buckets, id)
		}
	}
	if len(a.buckets) < admissionMaxBuckets {
		return true
	}
	a.nextReap = now.Add(idle)
	return false
}

// coarseReply builds the degraded answer admission control and
// budget shedding return instead of an error: no records or redirects, just
// the summary-derived match estimate for the whole branch.
func (s *Server) coarseReply(snap *routingSnapshot, q *query.Query) wire.QueryReply {
	rep := wire.QueryReply{Coarse: true}
	if snap.branchSummary != nil {
		est := q.EstimateMatches(snap.branchSummary)
		if !math.IsNaN(est) && !math.IsInf(est, 0) {
			rep.CoarseEstimate = est
		}
	}
	return rep
}

// requesters returns how many identities have a bucket of their own.
func (a *admission) requesters() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buckets)
}

// AdmissionInfo is the admission controller's observable state, mirroring
// the roads_admission_* series for harness and test consumption. Shed
// counts queries degraded to coarse answers.
type AdmissionInfo struct {
	Enabled    bool
	Rate       float64
	Burst      float64
	Requesters int
	Admitted   uint64
	Shed       uint64
}

// AdmissionInfo reports the server's admission state (zero when disabled).
func (s *Server) AdmissionInfo() AdmissionInfo {
	a := s.admission
	if a == nil {
		return AdmissionInfo{}
	}
	return AdmissionInfo{
		Enabled:    true,
		Rate:       a.rate,
		Burst:      a.burst,
		Requesters: a.requesters(),
		Admitted:   a.admitted.Load(),
		Shed:       a.shed.Load(),
	}
}
