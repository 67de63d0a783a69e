package live

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"roads/internal/query"
	"roads/internal/transport"
	"roads/internal/wire"
)

// budgetClipper is a transport a client calls through: while on, every query
// leaves it with a one-nanosecond deadline budget, which the server it
// reaches has spent before it finishes evaluating.
type budgetClipper struct {
	transport.Transport
	on atomic.Bool
}

func (b *budgetClipper) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	if req.Kind == wire.KindQuery && b.on.Load() {
		clipped, q := *req, *req.Query
		q.Budget = time.Nanosecond
		clipped.Query = &q
		req = &clipped
	}
	return b.Transport.CallContext(ctx, addr, req)
}

// shedStar builds the shared fixture: a parked-loop star with two branches
// of eight records each, and a client transport that can clip every query's
// deadline budget to nothing on its way to the entry server.
func shedStar(t *testing.T) (*Server, *budgetClipper) {
	t.Helper()
	root, _, _, tr, _ := newCacheStar(t, nil, rangeOf(0, 8), rangeOf(100, 8))
	return root, &budgetClipper{Transport: tr}
}

// TestAdmissionShedsToCoarse: a query the entry server admits with its
// deadline budget already spent gets a coarse summary-only answer through
// the client — flagged in the stats, not an error — and a caching client
// never caches that answer.
func TestAdmissionShedsToCoarse(t *testing.T) {
	root, clip := shedStar(t)
	cli := NewClient(clip, "t-cache")
	cli.CacheResults = true
	q := query.New("q", query.NewRange("a0", -1, 2000))

	clip.on.Store(true)
	recs, stats, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatalf("over-budget resolve must not error, got: %v", err)
	}
	if stats.Coarse != 1 || len(recs) != 0 {
		t.Fatalf("over-budget resolve: coarse=%d records=%d; want a coarse shed", stats.Coarse, len(recs))
	}
	if stats.CoarseEstimate <= 0 {
		t.Fatalf("coarse reply carried estimate %v; want a positive branch estimate", stats.CoarseEstimate)
	}
	if st := root.StatusSnapshot(); st.QueriesShed != 1 {
		t.Fatalf("root counts %d shed queries; want 1", st.QueriesShed)
	}

	clip.on.Store(false)
	recs, stats, err = cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("the coarse resolve was cached and served again")
	}
	if stats.Coarse != 0 || len(recs) != 16 {
		t.Fatalf("resolve within budget: coarse=%d records=%d; want a full answer of 16", stats.Coarse, len(recs))
	}
	// Control: the complete resolve was cached, so the check above can fail.
	if _, stats, err = cli.Resolve(root.Addr(), q); err != nil || !stats.CacheHit {
		t.Fatalf("the repeat of a complete resolve was not a cache hit (err %v)", err)
	}
}

// TestAdmissionPlainRequesterShedsToCoarse: every shed answers coarse,
// whatever the query carries — a client with default settings (no cache
// fields) whose budget is spent gets the flagged estimate too, not an error.
func TestAdmissionPlainRequesterShedsToCoarse(t *testing.T) {
	root, clip := shedStar(t)
	cli := NewClient(clip, "t-plain")
	q := query.New("q", query.NewRange("a0", -1, 2000))
	recs, stats, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coarse != 0 || len(recs) != 16 {
		t.Fatalf("resolve within budget: coarse=%d records=%d; want a full answer of 16", stats.Coarse, len(recs))
	}
	clip.on.Store(true)
	_, stats, err = cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatalf("over-budget resolve must not error, got: %v", err)
	}
	if stats.Coarse != 1 {
		t.Fatalf("over-budget resolve: coarse=%d; want a coarse shed", stats.Coarse)
	}
}
