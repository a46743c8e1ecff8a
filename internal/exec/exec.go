// Package exec is a Volcano-style query execution engine: algorithms
// consuming and producing streams of tuples through the iterator
// interface (open/next/close, with next moving a batch of rows), as in
// the Volcano query processor the optimizer generator was built for. It
// executes the physical plans produced by optimizers generated from the
// relational model (internal/relopt), including the exchange operator
// for partitioned parallelism.
package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/rel"
)

// Row is one tuple: values aligned with a Schema's column list.
type Row []int64

// Schema maps the columns of a stream to row positions. Aggregate
// outputs occupy positions with column ID 0 (they are not catalog
// columns).
type Schema struct {
	// Cols lists the stream's columns in row order.
	Cols []rel.ColID
}

// NewSchema builds a schema over the given column list.
func NewSchema(cols []rel.ColID) *Schema { return &Schema{Cols: cols} }

// find returns the row position of a column, the last if it repeats, or
// -1. A schema is a handful of columns and is looked up only while a
// plan is built, so a scan beats building an index per plan node.
func (s *Schema) find(c rel.ColID) int {
	if c == rel.InvalidCol {
		return -1
	}
	for i := len(s.Cols) - 1; i >= 0; i-- {
		if s.Cols[i] == c {
			return i
		}
	}
	return -1
}

// Pos returns the row position of a column; it panics on unknown
// columns, which indicates a planner bug.
func (s *Schema) Pos(c rel.ColID) int {
	p := s.find(c)
	if p < 0 {
		panic(fmt.Sprintf("exec: column c%d not in schema %v", c, s.Cols))
	}
	return p
}

// Has reports whether the schema contains the column.
func (s *Schema) Has(c rel.ColID) bool { return s.find(c) >= 0 }

// Width returns the number of columns.
func (s *Schema) Width() int { return len(s.Cols) }

// Table is a stored relation. Its contents live in two pointer-free
// slabs, both in clustered scan order: the row-major slab, where stored
// row i is the window rows[i*w:(i+1)*w], and the column-major slab, one
// vector of n values per schema column, which a ColScan serves as
// transpose-free column windows. There is no header per stored row: the
// row operators make a row's header where they emit it (Row), so the
// collector has nothing to mark inside a table but its two slabs. A
// table is built only by NewTable or FromData, and is never written
// after that.
type Table struct {
	// Name is the relation name.
	Name string
	// Schema is the table's column layout.
	Schema *Schema

	n, w int
	// rows is the row-major slab.
	rows []int64
	// cols are the column vectors, windows of the column-major slab.
	cols [][]int64
	// sum is the checksum of both slabs at build, kept by debug builds
	// only (verify).
	sum uint64
}

// NewTable builds a stored table from rows in the order given, copying
// their values into the table's slabs. Every row must have the schema's
// width.
func NewTable(name string, schema *Schema, rows []Row) *Table {
	t := &Table{Name: name, Schema: schema}
	t.compact(rows)
	return t
}

// Len returns the number of stored rows.
func (t *Table) Len() int { return t.n }

// Row returns stored row i: a window of the row slab, not a copy. Its
// capacity ends with the row, so an append to it cannot write into the
// next one. Stored rows must not be written.
func (t *Table) Row(i int) Row {
	lo := i * t.w
	return Row(t.rows[lo : lo+t.w : lo+t.w])
}

// compact copies rows into the table's row-major slab, one contiguous
// sweep in scan order, and builds the column-major slab from it. Loaded
// rows arrive as individually allocated slices; after compaction a scan
// reads memory sequentially, and the loaded rows, headers included, are
// garbage.
func (t *Table) compact(rows []Row) {
	t.n, t.w = len(rows), t.Schema.Width()
	t.rows = make([]int64, t.n*t.w)
	for i, r := range rows {
		if len(r) != t.w {
			panic(fmt.Sprintf("exec: table %q row %d has %d values, schema width %d", t.Name, i, len(r), t.w))
		}
		copy(t.rows[i*t.w:], r)
	}
	t.buildCols()
	if debugBuild {
		t.sum = t.checksum()
	}
}

// buildCols builds the column-major slab from the row slab, carved into
// one vector per schema column. It doubles the table's footprint in
// exchange for transpose-free columnar scans.
func (t *Table) buildCols() {
	slab := make([]int64, t.w*t.n)
	t.cols = make([][]int64, t.w)
	for j := range t.cols {
		t.cols[j] = slab[j*t.n : (j+1)*t.n : (j+1)*t.n]
	}
	for i := 0; i < t.n; i++ {
		for j, v := range t.Row(i) {
			t.cols[j][i] = v
		}
	}
}

// checksum hashes both slabs.
func (t *Table) checksum() uint64 {
	h := uint64(14695981039346656037)
	for _, slab := range append([][]int64{t.rows}, t.cols...) {
		for _, v := range slab {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	return h
}

// verify panics, naming the table, when its row and column slabs
// disagree or either changed since the table was built: a stored row is
// shared with every result that returns it, so a write through a result
// row lands here. Only debug builds record the checksum it compares.
func (t *Table) verify() {
	for i := 0; i < t.n; i++ {
		for j, v := range t.Row(i) {
			if t.cols[j][i] != v {
				panic(fmt.Sprintf("exec: table %q: row %d column %d reads %d in the row slab, %d in the column slab",
					t.Name, i, j, v, t.cols[j][i]))
			}
		}
	}
	if sum := t.checksum(); sum != t.sum {
		panic(fmt.Sprintf("exec: table %q changed since it was built (checksum %x, was %x)", t.Name, sum, t.sum))
	}
}

// DB holds the stored relations of a database instance.
type DB struct {
	tables map[string]*Table

	// Cumulative execution counters, maintained atomically so
	// concurrent queries over one instance can share them.
	queries atomic.Int64
	rows    atomic.Int64
	errors  atomic.Int64
}

// Counters are a database instance's cumulative execution statistics:
// every Run/RunOpts drain over the instance counts one query and its
// result rows, or one error when the drain (or the plan build) failed —
// including cancellation. Callers driving iterators directly through
// BuildPlanOpts/Collect are not counted.
type Counters struct {
	// Queries is the number of plans drained to completion.
	Queries int64 `json:"queries"`
	// Rows is the total number of result rows returned.
	Rows int64 `json:"rows"`
	// Errors is the number of runs that failed, including context
	// cancellation mid-drain.
	Errors int64 `json:"errors"`
}

// Counters snapshots the instance's cumulative execution statistics.
func (db *DB) Counters() Counters {
	return Counters{
		Queries: db.queries.Load(),
		Rows:    db.rows.Load(),
		Errors:  db.errors.Load(),
	}
}

// countRun records one Run* outcome.
func (db *DB) countRun(rows int, err error) {
	if err != nil {
		db.errors.Add(1)
		return
	}
	db.queries.Add(1)
	db.rows.Add(int64(rows))
}

// verifyTables runs Table.verify on every table of the instance.
func (db *DB) verifyTables() {
	for _, t := range db.tables {
		t.verify()
	}
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// Add registers a table.
func (db *DB) Add(t *Table) { db.tables[t.Name] = t }

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// FromData loads generated table contents (see datagen.Rows) into a
// database whose layout follows the catalog.
func FromData(cat *rel.Catalog, data map[string][][]int64) *DB {
	db := NewDB()
	for name, rows := range data {
		t := cat.Table(name)
		if t == nil {
			panic(fmt.Sprintf("exec: data for unknown table %q", name))
		}
		schema := NewSchema(t.Columns)
		loaded := make([]Row, len(rows))
		for i, r := range rows {
			loaded[i] = Row(r)
		}
		// Respect the catalog's clustered order: the optimizer relies
		// on file scans delivering it.
		if len(t.Ordered) > 0 {
			keys := make([]sortKey, len(t.Ordered))
			for i, c := range t.Ordered {
				keys[i].pos = schema.Pos(c)
			}
			sortRows(loaded, keys)
		}
		tab := NewTable(name, schema, loaded)
		db.Add(tab)
	}
	return db
}

// Iterator is the Volcano iterator interface, batched: every query
// processing algorithm consumes zero or more input iterators and
// produces a stream of row batches. Open once, pull batches until ok is
// false, close. See batch.go for how long a returned batch stays valid.
type Iterator interface {
	// Open prepares the iterator for producing batches.
	Open() error
	// NextBatch returns the next batch of rows; ok is false at end of
	// stream. The returned batch is valid until the next call. Batches
	// are never empty: Len() >= 1 when ok.
	NextBatch() (b *Batch, ok bool, err error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// Collect drains an iterator into a slice, handling open and close. A
// Close error surfaces when the drain itself succeeded. The result's
// size is unknown until the input ends, and the optimizer's estimate of
// it can be several times off either way, so the row headers are staged
// in pooled chunks and copied once into a slice of exactly their number.
func Collect(it Iterator) (out []Row, err error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := it.Close(); err == nil && cerr != nil {
			out, err = nil, cerr
		}
	}()
	st := newRowStore()
	defer st.release()
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		st.add(b.Rows)
	}
	if st.n == 0 {
		return nil, nil
	}
	out = make([]Row, 0, st.n)
	for _, c := range st.chunks {
		out = append(out, c...)
	}
	return out, nil
}

// CollectSized is Collect; the result-cardinality hint is not used.
//
// Deprecated: use Collect, which sizes the result exactly.
func CollectSized(it Iterator, sizeHint int) ([]Row, error) { return Collect(it) }
