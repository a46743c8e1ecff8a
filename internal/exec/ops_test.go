package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rel"
	"repro/internal/relopt"
)

// sliceIter is a batch producer over literal rows, DefaultBatchSize
// rows a batch.
type sliceIter struct {
	rows []Row
	next int
	err  error
	out  Batch
}

func iterOf(rows ...Row) *sliceIter { return &sliceIter{rows: rows} }

func (s *sliceIter) Open() error { s.next = 0; return s.err }
func (s *sliceIter) NextBatch() (*Batch, bool, error) {
	if s.err != nil {
		return nil, false, s.err
	}
	if s.next >= len(s.rows) {
		return nil, false, nil
	}
	end := min(s.next+DefaultBatchSize, len(s.rows))
	s.out.Rows = s.rows[s.next:end]
	s.next = end
	return &s.out, true, nil
}
func (s *sliceIter) Close() error { return nil }

func schema2() *Schema { return NewSchema([]rel.ColID{1, 2}) }

func TestFilterConjuncts(t *testing.T) {
	in := iterOf(Row{1, 10}, Row{2, 20}, Row{3, 30}, Row{4, 20})
	f := NewColFilter(in, schema2(), []rel.Pred{
		{Col: 2, Op: rel.CmpEQ, Val: 20},
		{Col: 1, Op: rel.CmpGT, Val: 2},
	})
	out, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0] != 4 {
		t.Fatalf("out = %v", out)
	}
}

func TestFilterColumnColumn(t *testing.T) {
	in := iterOf(Row{1, 1}, Row{2, 3}, Row{5, 5})
	f := NewColFilter(in, schema2(), []rel.Pred{{Col: 1, Op: rel.CmpEQ, OtherCol: 2}})
	out, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestProjectReorders(t *testing.T) {
	in := iterOf(Row{1, 10}, Row{2, 20})
	p := NewColProject(in, schema2(), []rel.ColID{2, 1})
	out, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 10 || out[0][1] != 1 {
		t.Fatalf("out = %v", out)
	}
}

func TestSortDirections(t *testing.T) {
	in := iterOf(Row{3, 1}, Row{1, 2}, Row{2, 2}, Row{1, 1})
	s := NewSort(in, schema2(), []relopt.OrderCol{{Col: 1}, {Col: 2, Desc: true}})
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{1, 2}, {1, 1}, {2, 2}, {3, 1}}
	for i := range want {
		if out[i][0] != want[i][0] || out[i][1] != want[i][1] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestSortReopenable(t *testing.T) {
	in := iterOf(Row{2, 0}, Row{1, 0})
	s := NewSort(in, schema2(), []relopt.OrderCol{{Col: 1}})
	first, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("reopen lost rows: %v %v", first, second)
	}
}

func TestMergeJoinDuplicateKeys(t *testing.T) {
	left := iterOf(Row{1, 0}, Row{2, 0}, Row{2, 1}, Row{3, 0})
	right := iterOf(Row{2, 7}, Row{2, 8}, Row{4, 9})
	m := NewMergeJoin(left, right, schema2(), schema2(), 0, 0, nil)
	out, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	// 2 left rows with key 2 × 2 right rows = 4.
	if len(out) != 4 {
		t.Fatalf("out = %v", out)
	}
	for _, r := range out {
		if len(r) != 4 || r[0] != 2 || r[2] != 2 {
			t.Fatalf("bad joined row %v", r)
		}
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	m := NewMergeJoin(iterOf(), iterOf(Row{1, 2}), schema2(), schema2(), 0, 0, nil)
	out, err := Collect(m)
	if err != nil || len(out) != 0 {
		t.Fatalf("out = %v err = %v", out, err)
	}
}

func TestHashJoinMatchesMergeJoin(t *testing.T) {
	left := []Row{{1, 0}, {2, 0}, {2, 1}, {5, 2}}
	right := []Row{{2, 7}, {2, 8}, {5, 9}, {6, 1}}
	h := NewColHashJoin(iterOf(left...), iterOf(right...), schema2(), schema2(), 0, 0, nil)
	hout, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMergeJoin(iterOf(left...), iterOf(right...), schema2(), schema2(), 0, 0, nil)
	mout, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(hout) != Fingerprint(mout) {
		t.Fatalf("hash %v != merge %v", hout, mout)
	}
}

func TestJoinFusedProjection(t *testing.T) {
	left := iterOf(Row{1, 10})
	right := iterOf(Row{1, 20})
	// proj picks positions 3 (right col 2) and 0 (left col 1).
	h := NewColHashJoin(left, right, schema2(), schema2(), 0, 0, []int{3, 0})
	out, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0] != 20 || out[0][1] != 1 {
		t.Fatalf("out = %v", out)
	}
}

func TestMergeIntersectSetSemantics(t *testing.T) {
	order := []int{0, 1}
	left := iterOf(Row{1, 1}, Row{2, 2}, Row{2, 2}, Row{3, 3})
	right := iterOf(Row{2, 2}, Row{2, 2}, Row{3, 3}, Row{4, 4})
	m := NewMergeIntersect(left, right, order)
	out, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v, want two distinct rows", out)
	}
}

func TestHashIntersectMatchesMerge(t *testing.T) {
	l := []Row{{1, 1}, {2, 2}, {2, 2}, {3, 3}}
	r := []Row{{2, 2}, {3, 3}, {5, 5}}
	h, err := Collect(NewHashIntersect(iterOf(l...), iterOf(r...)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Collect(NewMergeIntersect(iterOf(l...), iterOf(r...), []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(h) != Fingerprint(m) {
		t.Fatalf("hash %v != merge %v", h, m)
	}
}

func TestGroupByOperatorsAgree(t *testing.T) {
	rows := []Row{{1, 10}, {1, 20}, {2, 5}, {2, 5}, {3, 0}}
	aggs := []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: 2}, {Fn: rel.AggMin, Col: 2}, {Fn: rel.AggMax, Col: 2}}
	s := NewColSortGroupBy(iterOf(rows...), schema2(), []rel.ColID{1}, aggs)
	sout, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	h := NewColHashGroupBy(iterOf(rows...), schema2(), []rel.ColID{1}, aggs)
	hout, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(sout) != Fingerprint(hout) {
		t.Fatalf("sorted %v != hashed %v", sout, hout)
	}
	if len(sout) != 3 {
		t.Fatalf("groups = %v", sout)
	}
	// Group 1: count 2, sum 30, min 10, max 20.
	for _, r := range sout {
		if r[0] == 1 {
			if r[1] != 2 || r[2] != 30 || r[3] != 10 || r[4] != 20 {
				t.Fatalf("group 1 aggregates = %v", r)
			}
		}
	}
}

func TestGlobalGroup(t *testing.T) {
	rows := []Row{{1, 10}, {2, 20}}
	h := NewColHashGroupBy(iterOf(rows...), schema2(), nil, []rel.Agg{{Fn: rel.AggCount}})
	out, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0] != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestGatherMergesAndPropagatesErrors(t *testing.T) {
	g := NewGather([]Iterator{
		iterOf(Row{1}, Row{2}),
		iterOf(Row{3}),
		iterOf(),
	})
	out, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}

	boom := errors.New("boom")
	bad := NewGather([]Iterator{iterOf(Row{1}), &sliceIter{err: boom}})
	if _, err := Collect(bad); err == nil {
		t.Fatal("partition error not propagated")
	}
}

func TestSchemaPanicsOnUnknownColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pos on unknown column did not panic")
		}
	}()
	schema2().Pos(99)
}

func TestCanonicalReordersColumns(t *testing.T) {
	s := NewSchema([]rel.ColID{5, 1, rel.InvalidCol})
	rows := Canonical([]Row{{50, 10, 7}}, s)
	if rows[0][0] != 10 || rows[0][1] != 50 || rows[0][2] != 7 {
		t.Fatalf("canonical = %v", rows[0])
	}
}

func TestSortedBy(t *testing.T) {
	rows := []Row{{1, 9}, {2, 1}, {2, 5}}
	if !SortedBy(rows, []int{0}) {
		t.Fatal("rows are sorted on col 0")
	}
	if SortedBy(rows, []int{1}) {
		t.Fatal("rows are not sorted on col 1")
	}
}

// TestExternalSortMultipleRuns: tiny runs force the single-level merge
// path; output is still totally ordered and complete.
func TestExternalSortMultipleRuns(t *testing.T) {
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64((i * 37) % 101), int64(i)})
	}
	s := NewSort(iterOf(rows...), schema2(), []relopt.OrderCol{{Col: 1}})
	s.RunRows = 7 // 15 runs
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows) {
		t.Fatalf("lost rows: %d of %d", len(out), len(rows))
	}
	if !SortedBy(out, []int{0}) {
		t.Fatal("output not sorted across runs")
	}
}

// TestExternalSortStability: rows with equal keys keep arrival order
// within a run; across runs completeness is what matters.
func TestExternalSortEqualKeys(t *testing.T) {
	rows := []Row{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	s := NewSort(iterOf(rows...), schema2(), []relopt.OrderCol{{Col: 1}})
	s.RunRows = 2
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(out) != Fingerprint(rows) {
		t.Fatalf("equal-key rows lost: %v", out)
	}
}

// TestExchangeStreamsAndStops: the streaming exchange delivers every
// row exactly once across partitions, and abandoned partitions do not
// wedge the producer.
func TestExchangeStreams(t *testing.T) {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{int64(i)}
	}
	st := newExchangeState(nil, 4, 0, 0, nil, []Iterator{iterOf(rows...)})
	var wg sync.WaitGroup
	counts := make([]int, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out, err := Collect(st.port(p))
			if err != nil {
				t.Errorf("partition %d: %v", p, err)
				return
			}
			for _, r := range out {
				if int(r[0])%4 != p {
					t.Errorf("row %v in partition %d", r, p)
				}
			}
			counts[p] = len(out)
		}(p)
	}
	wg.Wait()
	total := counts[0] + counts[1] + counts[2] + counts[3]
	if total != len(rows) {
		t.Fatalf("partitions delivered %d of %d rows", total, len(rows))
	}
}

// TestExchangeMultiProducer: several producers routing into the same
// partitions deliver each producer's rows exactly once.
func TestExchangeMultiProducer(t *testing.T) {
	producers := make([]Iterator, 3)
	total := 0
	for p := range producers {
		rows := make([]Row, 500+100*p)
		for i := range rows {
			rows[i] = Row{int64(len(rows)*1000 + i)}
		}
		total += len(rows)
		producers[p] = iterOf(rows...)
	}
	st := newExchangeState(nil, 2, 0, 64, nil, producers)
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out, err := Collect(st.port(p))
			if err != nil {
				t.Errorf("partition %d: %v", p, err)
				return
			}
			counts[p] = len(out)
		}(p)
	}
	wg.Wait()
	if counts[0]+counts[1] != total {
		t.Fatalf("partitions delivered %d of %d rows", counts[0]+counts[1], total)
	}
}

// TestExchangeOrderedMerge: a multi-producer exchange over sorted
// producers preserves the order within every partition.
func TestExchangeOrderedMerge(t *testing.T) {
	producers := make([]Iterator, 2)
	for p := range producers {
		rows := make([]Row, 1000)
		for i := range rows {
			rows[i] = Row{int64(2*i + p)} // sorted ascending
		}
		producers[p] = iterOf(rows...)
	}
	keys := []sortKey{{pos: 0}}
	st := newExchangeState(nil, 2, 0, 16, keys, producers)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out, err := Collect(st.port(p))
			if err != nil {
				t.Errorf("partition %d: %v", p, err)
				return
			}
			if len(out) != 1000 {
				t.Errorf("partition %d got %d rows, want 1000", p, len(out))
			}
			if !SortedBy(out, []int{0}) {
				t.Errorf("partition %d not sorted", p)
			}
		}(p)
	}
	wg.Wait()
}

// TestExchangeEarlyClose: closing one partition while others drain
// completes without deadlock and still delivers the open partitions.
func TestExchangeEarlyClose(t *testing.T) {
	rows := make([]Row, 4000)
	for i := range rows {
		rows[i] = Row{int64(i)}
	}
	st := newExchangeState(nil, 2, 0, 0, nil, []Iterator{iterOf(rows...)})
	abandoned := st.port(0)
	if err := abandoned.Open(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := abandoned.NextBatch(); err != nil {
		t.Fatal(err)
	}
	abandoned.Close() // stop consuming partition 0

	out, err := Collect(st.port(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows)/2 {
		t.Fatalf("kept partition got %d rows, want %d", len(out), len(rows)/2)
	}
}

// TestExchangePropagatesChildError: a failing input surfaces on every
// partition.
func TestExchangeErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	st := newExchangeState(nil, 2, 0, 0, nil, []Iterator{&sliceIter{err: boom}})
	for p := 0; p < 2; p++ {
		if _, err := Collect(st.port(p)); err == nil {
			t.Fatalf("partition %d: error not propagated", p)
		}
	}
}

// trackIter counts how many rows were pulled from it, DefaultBatchSize
// rows a batch, and signals Close.
type trackIter struct {
	n      int64
	next   int64
	closed chan struct{}
	out    Batch
}

func (c *trackIter) Open() error { c.next = 0; return nil }
func (c *trackIter) NextBatch() (*Batch, bool, error) {
	if c.next >= c.n {
		return nil, false, nil
	}
	c.out.Rows = make([]Row, 0, DefaultBatchSize)
	for ; c.next < c.n && len(c.out.Rows) < DefaultBatchSize; c.next++ {
		c.out.Rows = append(c.out.Rows, Row{c.next})
	}
	return &c.out, true, nil
}
func (c *trackIter) Close() error { close(c.closed); return nil }

// TestExchangeProducerExitsWhenAllAbandoned: regression for the
// producer-leak bug — once every partition consumer has closed, the
// producer must exit promptly instead of draining its input to
// end-of-stream.
func TestExchangeProducerExitsWhenAllAbandoned(t *testing.T) {
	child := &trackIter{n: 1_000_000, closed: make(chan struct{})}
	st := newExchangeState(nil, 2, 0, 0, nil, []Iterator{child})
	ports := []Iterator{st.port(0), st.port(1)}
	for _, p := range ports {
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ports[0].NextBatch(); err != nil {
		t.Fatal(err)
	}
	for _, p := range ports {
		p.Close()
	}
	select {
	case <-child.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("producer did not exit after all partitions closed")
	}
	if pulled := child.next; pulled >= child.n {
		t.Fatalf("producer drained its child to end-of-stream (%d rows)", pulled)
	}
}

// TestExchangeContextCancel: canceling the exchange's context while a
// consumer is mid-stream tears the producers down and surfaces the
// cancellation.
func TestExchangeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	child := &trackIter{n: 1_000_000, closed: make(chan struct{})}
	st := newExchangeState(ctx, 2, 0, 0, nil, []Iterator{child})
	ports := []Iterator{st.port(0), st.port(1)}
	for _, p := range ports {
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ports[0].NextBatch(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Both ports must terminate (error or end-of-stream) rather than
	// block forever; the producer must exit.
	for i, p := range ports {
		for {
			_, ok, err := p.NextBatch()
			if err != nil || !ok {
				break
			}
			_ = i
		}
		p.Close()
	}
	select {
	case <-child.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("producer did not exit after context cancel")
	}
}

// TestQuickExternalSortIsSortedPermutation: for random rows and run
// sizes, the external sort emits a sorted permutation of its input.
func TestQuickExternalSortIsSortedPermutation(t *testing.T) {
	check := func(seed int64, runRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{rng.Int63n(50), rng.Int63n(1000)}
		}
		s := NewSort(iterOf(rows...), schema2(), []relopt.OrderCol{{Col: 1}, {Col: 2}})
		s.RunRows = 1 + int(runRows)%32
		out, err := Collect(s)
		if err != nil {
			return false
		}
		return len(out) == n &&
			SortedBy(out, []int{0, 1}) &&
			Fingerprint(out) == Fingerprint(rows)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGroupByConservation: for random inputs, per-group COUNTs sum
// to the input size and SUMs to the input total under both grouping
// algorithms.
func TestQuickGroupByConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		rows := make([]Row, n)
		var total int64
		for i := range rows {
			v := rng.Int63n(100)
			rows[i] = Row{rng.Int63n(8), v}
			total += v
		}
		aggs := []rel.Agg{{Fn: rel.AggCount}, {Fn: rel.AggSum, Col: 2}}
		for _, mk := range []func() Iterator{
			func() Iterator {
				sorted := NewSort(iterOf(rows...), schema2(), []relopt.OrderCol{{Col: 1}})
				return NewColSortGroupBy(sorted, schema2(), []rel.ColID{1}, aggs)
			},
			func() Iterator {
				return NewColHashGroupBy(iterOf(rows...), schema2(), []rel.ColID{1}, aggs)
			},
		} {
			out, err := Collect(mk())
			if err != nil {
				return false
			}
			var count, sum int64
			for _, r := range out {
				count += r[1]
				sum += r[2]
			}
			if count != int64(n) || sum != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
