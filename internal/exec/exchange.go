package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// exchangeQueueBatches bounds each partition queue's depth in batches:
// the flow-control window between producers and consumers.
const exchangeQueueBatches = 4

// msgQueue is an unbounded multi-producer single-consumer batch queue.
// Ordered-merge exchanges use it instead of bounded channels: a k-way
// merge consumer cannot emit until it has a head from *every* producer,
// so a producer blocked on one partition's bounded queue while another
// partition's merge starves for its head would deadlock. Unbounded
// pushes never block, at the cost of buffering up to a partition's share
// of the input when the consumer is slow.
type msgQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	msgs   []gatherBatchMsg
	closed bool
}

func newMsgQueue() *msgQueue {
	q := &msgQueue{}
	q.cond.L = &q.mu
	return q
}

// push enqueues without blocking; pushes after close are dropped.
func (q *msgQueue) push(m gatherBatchMsg) {
	q.mu.Lock()
	if !q.closed {
		q.msgs = append(q.msgs, m)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// pop blocks until a message is available or the queue is closed and
// drained; ok is false in the latter case.
func (q *msgQueue) pop() (gatherBatchMsg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.msgs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.msgs) == 0 {
		return gatherBatchMsg{}, false
	}
	m := q.msgs[0]
	q.msgs = q.msgs[1:]
	return m, true
}

// close wakes any blocked pop; the consumer still drains queued messages.
func (q *msgQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// exchangeState is the shared runtime of one exchange operator:
// Volcano's exchange as a pipelined inter-goroutine boundary. N producer
// goroutines each drain their own partition-local instance of the input
// subplan and route rows — a batch at a time — to per-partition bounded
// queues; one consumer port per partition pulls from its queue.
//
// Shutdown discipline: a consumer closing its port fires that
// partition's done channel (producers stop routing to it); once every
// partition has closed, allDone fires and producers exit immediately
// instead of draining their input to end-of-stream. The first producer
// error cancels the exchange's context, stopping the other producers,
// and surfaces from every port.
type exchangeState struct {
	degree int
	pos    int
	size   int
	// keys non-empty puts the exchange in ordered-merge mode: each
	// producer's stream is sorted on these keys, so each port runs a
	// k-way merge over per-(producer,partition) queues instead of
	// reading one interleaved queue.
	keys []sortKey

	producers []Iterator

	// parent is the caller's context, checked once per batch a port
	// hands out: producers that queued every batch before a cancel
	// must not let the ports report a clean end-of-stream. ctx derives
	// from it and is also canceled when the producers finish normally.
	parent context.Context
	ctx    context.Context
	cancel context.CancelFunc

	startOnce sync.Once
	// outs are the per-partition queues (unordered mode: shared by all
	// producers).
	outs []chan gatherBatchMsg
	// queues are the per-producer per-partition queues (ordered mode);
	// unbounded so a k-way merge starving for one producer's head can
	// never deadlock a producer blocked on another partition.
	queues [][]*msgQueue

	done    []chan struct{}
	closed  atomic.Int32
	allDone chan struct{}

	wg sync.WaitGroup

	mu  sync.Mutex
	err error
}

// newExchangeState wires the shared state for one exchange node.
// producers are the pre-built partition-local input instances; size is
// the routing batch size; keys non-empty selects ordered-merge mode.
func newExchangeState(ctx context.Context, degree, pos, size int, keys []sortKey, producers []Iterator) *exchangeState {
	if ctx == nil {
		ctx = context.Background()
	}
	st := &exchangeState{
		degree:    degree,
		pos:       pos,
		size:      sizeOrDefault(size),
		keys:      keys,
		producers: producers,
		parent:    ctx,
		done:      make([]chan struct{}, degree),
		allDone:   make(chan struct{}),
	}
	st.ctx, st.cancel = context.WithCancel(ctx)
	for i := range st.done {
		st.done[i] = make(chan struct{})
	}
	if st.ordered() {
		st.queues = make([][]*msgQueue, len(producers))
		for p := range producers {
			st.queues[p] = make([]*msgQueue, degree)
			for d := 0; d < degree; d++ {
				st.queues[p][d] = newMsgQueue()
			}
		}
	} else {
		st.outs = make([]chan gatherBatchMsg, degree)
		for i := range st.outs {
			st.outs[i] = make(chan gatherBatchMsg, exchangeQueueBatches*len(producers))
		}
	}
	return st
}

// ordered reports whether the exchange preserves a sort order across the
// partition boundary (multi-producer only; a single sorted producer
// fills each queue in order already).
func (st *exchangeState) ordered() bool { return len(st.keys) > 0 && len(st.producers) > 1 }

// port returns the consumer iterator for one partition.
func (st *exchangeState) port(part int) Iterator {
	if st.ordered() {
		return &exchangePortOrdered{st: st, part: part, size: st.size}
	}
	return &exchangePort{st: st, part: part}
}

// start launches the producers on first use, plus a waiter that releases
// the context and (in unordered mode) closes the shared queues once all
// producers have exited.
func (st *exchangeState) start() {
	st.startOnce.Do(func() {
		st.wg.Add(len(st.producers))
		for p := range st.producers {
			go st.runProducer(p)
		}
		go func() {
			st.wg.Wait()
			st.cancel()
			for _, ch := range st.outs {
				close(ch)
			}
		}()
	})
}

// runProducer drains producer p's input instance, hash-routing each row
// to a per-partition staging buffer and shipping full buffers to that
// partition's queue.
func (st *exchangeState) runProducer(p int) {
	defer st.wg.Done()
	if st.ordered() {
		defer func() {
			for _, q := range st.queues[p] {
				q.close()
			}
		}()
	}
	it := st.producers[p]
	if err := it.Open(); err != nil {
		st.fail(err)
		return
	}
	defer it.Close()
	stage := make([][]Row, st.degree)
	skip := make([]bool, st.degree)
	for {
		// Exit as soon as every consumer has closed, or on cancel —
		// never drain the input to end-of-stream for nobody.
		select {
		case <-st.allDone:
			return
		case <-st.ctx.Done():
			st.fail(st.ctx.Err())
			return
		default:
		}
		b, ok, err := it.NextBatch()
		if err != nil {
			st.fail(err)
			return
		}
		if !ok {
			break
		}
		for _, row := range b.Rows {
			d := int(uint64(row[st.pos]) % uint64(st.degree))
			if skip[d] {
				continue
			}
			if stage[d] == nil {
				stage[d] = make([]Row, 0, st.size)
			}
			stage[d] = append(stage[d], row)
			if len(stage[d]) >= st.size {
				if !st.send(p, d, stage[d], skip) {
					return
				}
				stage[d] = nil
			}
		}
	}
	for d, rows := range stage {
		if len(rows) == 0 || skip[d] {
			continue
		}
		if !st.send(p, d, rows, skip) {
			return
		}
	}
}

// send ships one staged batch to partition d's queue; it gives up on the
// partition when its consumer closed, and reports false when the whole
// exchange should stop.
func (st *exchangeState) send(p, d int, rows []Row, skip []bool) bool {
	if st.ordered() {
		// Unbounded queue: check for shutdown without blocking, then push.
		select {
		case <-st.done[d]:
			skip[d] = true
			return true
		case <-st.allDone:
			return false
		case <-st.ctx.Done():
			st.fail(st.ctx.Err())
			return false
		default:
		}
		st.queues[p][d].push(gatherBatchMsg{rows: rows})
		return true
	}
	select {
	case st.outs[d] <- gatherBatchMsg{rows: rows}:
	case <-st.done[d]:
		skip[d] = true
	case <-st.allDone:
		return false
	case <-st.ctx.Done():
		st.fail(st.ctx.Err())
		return false
	}
	return true
}

// fail records the first producer error and cancels the exchange so the
// remaining producers stop promptly.
func (st *exchangeState) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
	st.cancel()
}

func (st *exchangeState) getErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// closePart marks one partition's consumer as gone; the last one fires
// allDone, letting producers exit without draining their inputs.
func (st *exchangeState) closePart(part int) {
	close(st.done[part])
	if st.closed.Add(1) == int32(st.degree) {
		close(st.allDone)
	}
}

// exchangePort is one partition's consumer view of an exchange: an
// ordinary (batch) iterator whose batches arrive from the producers.
type exchangePort struct {
	st        *exchangeState
	part      int
	closeOnce sync.Once
	view      Batch
}

// Open starts the shared producers on first use.
func (p *exchangePort) Open() error {
	p.st.start()
	return nil
}

// NextBatch returns the next batch routed to this partition.
func (p *exchangePort) NextBatch() (*Batch, bool, error) {
	if err := p.st.parent.Err(); err != nil {
		return nil, false, err
	}
	msg, ok := <-p.st.outs[p.part]
	if !ok {
		if err := p.st.getErr(); err != nil {
			return nil, false, fmt.Errorf("exec: exchange producer: %w", err)
		}
		return nil, false, nil
	}
	p.view.Rows = msg.rows
	return &p.view, true, nil
}

// Close releases this partition; producers stop routing to it.
func (p *exchangePort) Close() error {
	p.closeOnce.Do(func() { p.st.closePart(p.part) })
	return nil
}

// exchangePortOrdered is the sort-preserving consumer view: every
// producer's stream is sorted on the exchange keys, and the port k-way
// merges the per-producer queues of its partition.
type exchangePortOrdered struct {
	st        *exchangeState
	part      int
	size      int
	closeOnce sync.Once

	bufs  [][]Row
	idx   []int
	pdone []bool
	last  []Row // each producer's last merged row, kept by debug builds
	out   Batch
}

// Open starts the shared producers on first use.
func (p *exchangePortOrdered) Open() error {
	p.bufs = make([][]Row, len(p.st.producers))
	p.idx = make([]int, len(p.st.producers))
	p.pdone = make([]bool, len(p.st.producers))
	if debugBuild {
		p.last = make([]Row, len(p.st.producers))
	}
	p.st.start()
	return nil
}

// head ensures producer i has a buffered row for this partition.
func (p *exchangePortOrdered) head(i int) (Row, bool, error) {
	for {
		if p.idx[i] < len(p.bufs[i]) {
			return p.bufs[i][p.idx[i]], true, nil
		}
		if p.pdone[i] {
			return nil, false, nil
		}
		msg, ok := p.st.queues[i][p.part].pop()
		if !ok {
			p.pdone[i] = true
			if err := p.st.getErr(); err != nil {
				return nil, false, fmt.Errorf("exec: exchange producer: %w", err)
			}
			return nil, false, nil
		}
		p.bufs[i], p.idx[i] = msg.rows, 0
	}
}

// NextBatch returns the next batch of the partition's k-way merge.
func (p *exchangePortOrdered) NextBatch() (*Batch, bool, error) {
	if err := p.st.parent.Err(); err != nil {
		return nil, false, err
	}
	p.out.reset(p.size)
	for len(p.out.Rows) < p.size {
		best := -1
		var bestRow Row
		for i := range p.bufs {
			row, ok, err := p.head(i)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			if best < 0 || cmpKeys(row, bestRow, p.st.keys) < 0 {
				best, bestRow = i, row
			}
		}
		if best < 0 {
			break
		}
		if debugBuild {
			checkOrder("exchanged producer", p.last[best], bestRow, p.st.keys)
			p.last[best] = bestRow
		}
		p.idx[best]++
		p.out.add(bestRow)
	}
	if len(p.out.Rows) == 0 {
		return nil, false, nil
	}
	return &p.out, true, nil
}

// Close releases this partition; producers stop routing to it.
func (p *exchangePortOrdered) Close() error {
	p.closeOnce.Do(func() {
		p.out.release()
		p.st.closePart(p.part)
	})
	return nil
}
