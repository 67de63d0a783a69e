package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exact exposition output for one of
// each metric kind: the format is an interface other tools parse, so a
// formatting drift should fail loudly, not silently.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "Operations completed.")
	c.Add(42)
	g := reg.Gauge("test_depth", "Current depth.")
	g.Set(2.5)
	reg.GaugeFunc("test_children", "Current children.", func() float64 { return 3 })
	reg.SecondsCounterFunc("test_busy_seconds_total", "Time busy.", func() time.Duration { return 1500 * time.Millisecond })
	h := reg.Histogram("test_latency_seconds", "Op latency.",
		[]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket le=0.001
	h.Observe(2 * time.Millisecond)   // bucket le=0.01
	h.Observe(2 * time.Millisecond)   // bucket le=0.01
	h.Observe(time.Second)            // overflow

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_busy_seconds_total Time busy.
# TYPE test_busy_seconds_total counter
test_busy_seconds_total 1.5
# HELP test_children Current children.
# TYPE test_children gauge
test_children 3
# HELP test_depth Current depth.
# TYPE test_depth gauge
test_depth 2.5
# HELP test_latency_seconds Op latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 1
test_latency_seconds_bucket{le="0.01"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 1.0045
test_latency_seconds_count 4
# HELP test_ops_total Operations completed.
# TYPE test_ops_total counter
test_ops_total 42
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition drifted:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestLatencyBucketLadder(t *testing.T) {
	bounds := DefaultLatencyBounds()
	if len(bounds) != NumLatencyBuckets-1 {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), NumLatencyBuckets-1)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}
	if got := LatencyBucket(0); got != 0 {
		t.Fatalf("LatencyBucket(0) = %d, want 0", got)
	}
	if got := LatencyBucket(time.Minute); got != NumLatencyBuckets-1 {
		t.Fatalf("LatencyBucket(1m) = %d, want overflow %d", got, NumLatencyBuckets-1)
	}
	for i, b := range bounds {
		if got := LatencyBucket(b); got != i {
			t.Fatalf("LatencyBucket(%v) = %d, want %d (bounds are inclusive)", b, got, i)
		}
	}
	// Mutating the returned slice must not affect the canonical ladder.
	bounds[0] = time.Hour
	if DefaultLatencyBounds()[0] == time.Hour {
		t.Fatal("DefaultLatencyBounds returned the backing array, not a copy")
	}
}

func TestRegistryRejectsBadRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ok_total", "fine")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { reg.Counter("ok_total", "again") })
	mustPanic("bad name", func() { reg.Counter("0bad name", "nope") })
	mustPanic("empty histogram", func() { NewHistogram(nil) })
	mustPanic("descending bounds", func() {
		NewHistogram([]time.Duration{time.Second, time.Millisecond})
	})
}

// TestHandlerEndpoints drives the sidecar handler over httptest: /metrics
// must be Prometheus-parseable text, /statusz valid JSON embedding the
// status payload, and the pprof index reachable.
func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_hits_total", "Hits.").Add(7)
	srv := httptest.NewServer(Handler(reg, func() any {
		return map[string]string{"id": "srv0"}
	}))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "test_hits_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	body, ctype = get("/statusz")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/statusz content type %q", ctype)
	}
	var out struct {
		Time    string         `json:"time"`
		Metrics map[string]any `json:"metrics"`
		Status  map[string]any `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if out.Status["id"] != "srv0" {
		t.Fatalf("/statusz status payload missing: %s", body)
	}
	if v, ok := out.Metrics["test_hits_total"].(float64); !ok || v != 7 {
		t.Fatalf("/statusz metrics payload wrong: %s", body)
	}

	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index missing:\n%s", body)
	}
	if body, _ = get("/"); !strings.Contains(body, "/metrics") {
		t.Fatalf("index missing:\n%s", body)
	}
}

// TestRegistryConcurrentScrape hammers metric updates from many goroutines
// while scraping concurrently — under -race this proves updates and
// scrapes never conflict, the lock-free claim the package doc makes.
func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	g := reg.Gauge("test_level", "level")
	h := reg.Histogram("test_lat_seconds", "lat", DefaultLatencyBounds())

	const writers = 8
	const perWriter = 2000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = reg.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(time.Duration(i%2000) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.Snapshot().Total(); got != writers*perWriter {
		t.Fatalf("histogram total = %d, want %d", got, writers*perWriter)
	}
}
