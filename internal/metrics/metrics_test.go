package metrics

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestFromStatsAndMerge(t *testing.T) {
	a := FromStats(core.Stats{Groups: 3, Exprs: 10, MatchCalls: 7})
	if a.CacheHits != 0 || a.Coalesced != 0 {
		t.Fatalf("search counters alone recorded a serving outcome: %+v", a)
	}
	b := FromStats(core.Stats{Groups: 2, Exprs: 4, MatchCalls: 5,
		StopReason: errors.New("step budget exhausted"), AnytimeFallback: true, PeakMemoBytes: 99})
	a.Merge(b)
	// A cache hit is recorded from the serving result, not from Stats.
	a.Merge(&Search{Optimizations: 1, CacheHits: 1})
	if a.Optimizations != 3 || a.Groups != 5 || a.Exprs != 14 || a.MatchCalls != 12 {
		t.Fatalf("merged counters: %+v", a)
	}
	if a.CacheHits != 1 || a.Degraded != 1 || a.AnytimeFallbacks != 1 {
		t.Fatalf("merged outcome counts: %+v", a)
	}
	if a.LastStopReason != "step budget exhausted" || a.PeakMemoBytes != 99 {
		t.Fatalf("merged extrema: %+v", a)
	}
}

// TestSnapshotJSONStable: the wire names downstream dashboards key on
// must not drift silently.
func TestSnapshotJSONStable(t *testing.T) {
	s := Snapshot{Search: FromStats(core.Stats{Groups: 1}), Serve: &Serve{
		Capacity:  4,
		Endpoints: map[string]*Endpoint{"/query": {Requests: 1}},
	}}
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"search"`, `"optimizations"`, `"groups"`, `"match_calls"`,
		`"serve"`, `"capacity"`, `"endpoints"`, `"/query"`, `"latency"`, `"p99_us"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("snapshot JSON lacks %s:\n%s", key, data)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Log buckets are coarse; accept the right power-of-two
	// neighborhood rather than exact values.
	if p50 := h.Quantile(0.50); p50 < 256*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Errorf("p50 = %v", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 512*time.Microsecond || p99 > 2048*time.Microsecond {
		t.Errorf("p99 = %v", p99)
	}
	if max := h.Max(); max != time.Millisecond {
		t.Errorf("max = %v", max)
	}
	if mean := h.Mean(); mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Errorf("mean = %v", mean)
	}
}

// TestHistogramConcurrent: parallel observers under -race, and the
// aggregate count survives.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Summary().MaxUS != 7*999 {
		t.Fatalf("max = %dµs", h.Summary().MaxUS)
	}
}
