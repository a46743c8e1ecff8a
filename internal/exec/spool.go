package exec

import (
	"fmt"
	"sync"
)

// Spools: the execution side of multi-query materialization. A batch of
// plans rewritten by core.MaterializeSharedPlans shares one SpoolStore;
// each Materialize operator registers its input subplan under its spool
// ID at build time, the spool fills once — on the first Open of any
// operator serving it — and every Materialize and Reuse of that ID then
// serves the buffered rows. Buffering retains only Row headers, which
// the batch lifetime contract makes safe: row data is never reused.

// SpoolStore holds the materialized shared results of one batch
// execution. Pass the same store (exec.Options.Spools) to every plan of
// the batch, built and executed in batch order; a fresh store per batch
// keeps results from leaking across executions.
type SpoolStore struct {
	mu      sync.Mutex
	entries map[int]*spoolEntry
}

// NewSpoolStore creates an empty store.
func NewSpoolStore() *SpoolStore { return &SpoolStore{entries: make(map[int]*spoolEntry)} }

// register binds a spool ID to its producing subplan; the plan builder
// calls it at each Materialize node. Registering an already-bound ID
// returns the existing entry unchanged, so rebuilding the same plan
// against the same store (repeated executions of one batch) works; the
// spool then serves its first fill's rows.
func (s *SpoolStore) register(id int, producer Iterator, schema *Schema) *spoolEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		return e
	}
	e := &spoolEntry{producer: producer, schema: schema}
	s.entries[id] = e
	return e
}

// lookup returns the entry for a spool ID, or nil.
func (s *SpoolStore) lookup(id int) *spoolEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[id]
}

// spoolEntry is one shared result: a producer drained at most once and
// the buffered rows every consumer serves from. The schema is the
// producer's physical layout — which may order columns differently than
// the logical properties — so Reuse consumers must take their schema
// from the entry, not from the plan node they replaced.
type spoolEntry struct {
	mu       sync.Mutex
	producer Iterator
	schema   *Schema
	filled   bool
	rows     []Row
	err      error
}

// fill drains the producer on the first call; every later call returns
// the same outcome. Whichever consumer Opens first pays the fill, so
// any open order within the batch is correct.
func (e *spoolEntry) fill() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.filled {
		return e.err
	}
	e.filled = true
	e.rows, e.err = Collect(e.producer)
	e.producer = nil
	return e.err
}

// spoolScan serves a spool entry's buffered rows batch-natively; it is
// the shared implementation of Materialize and Reuse. Output batches
// alias windows of the buffered row-header slice — no copying.
type spoolScan struct {
	e    *spoolEntry
	pos  int
	size int
	out  Batch
}

// SetBatchSize sets the rows per output batch.
func (s *spoolScan) SetBatchSize(n int) { s.size = sizeOrDefault(n) }

// Open fills the spool if no consumer has yet.
func (s *spoolScan) Open() error {
	s.pos = 0
	return s.e.fill()
}

// NextBatch returns the next window of buffered rows.
func (s *spoolScan) NextBatch() (*Batch, bool, error) {
	if s.pos >= len(s.e.rows) {
		return nil, false, nil
	}
	end := s.pos + s.size
	if end > len(s.e.rows) {
		end = len(s.e.rows)
	}
	s.out.Rows = s.e.rows[s.pos:end]
	s.pos = end
	return &s.out, true, nil
}

// Close releases nothing: the buffered rows belong to the store, and
// the producer was already closed by its fill.
func (s *spoolScan) Close() error { return nil }

// Materialize spools its input's result once and passes it through: the
// operator pair's producing half. The input iterator is owned by the
// spool entry and drained on the first Open of any consumer of the ID.
type Materialize struct{ spoolScan }

// NewMaterialize registers the producer under the spool ID in the store
// and returns the pass-through operator.
func NewMaterialize(st *SpoolStore, id int, producer Iterator, schema *Schema) *Materialize {
	e := st.register(id, producer, schema)
	return &Materialize{spoolScan{e: e, size: DefaultBatchSize}}
}

// Reuse scans a spool some Materialize in the same batch registered:
// the operator pair's consuming half, a leaf in its own plan.
type Reuse struct{ spoolScan }

// NewReuse looks the spool up and returns the scan plus the spool's
// physical schema. It fails when no Materialize with the ID was built
// yet — batch plans must be built in batch execution order.
func NewReuse(st *SpoolStore, id int) (*Reuse, *Schema, error) {
	e := st.lookup(id)
	if e == nil {
		return nil, nil, fmt.Errorf("exec: reuse of spool %d before its materialize was built — batch plans must be built in order against one shared store", id)
	}
	return &Reuse{spoolScan{e: e, size: DefaultBatchSize}}, e.schema, nil
}
