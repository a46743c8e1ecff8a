// Package exec is a Volcano-style query execution engine: algorithms
// consuming and producing streams of tuples through the iterator
// interface (open/next/close), as in the Volcano query processor the
// optimizer generator was built for. It executes the physical plans
// produced by optimizers generated from the relational model
// (internal/relopt), including the exchange operator for partitioned
// parallelism.
package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/rel"
)

// Row is one tuple: values aligned with a Schema's column list.
type Row []int64

// Clone copies a row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

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

// Table is a stored relation.
type Table struct {
	// Name is the relation name.
	Name string
	// Schema is the table's column layout.
	Schema *Schema
	// Rows is the table's contents.
	Rows []Row

	// cols is the column-major projection of Rows, built once by
	// compact: one dense vector per column, in clustered order, so a
	// ColScan produces columnar batches as zero-copy windows without a
	// transpose on the hot path. Nil for tables that were never
	// compacted (hand-built test tables) or are empty; the plan builder
	// falls back to row scans then.
	cols [][]int64
}

// compact rewrites the table's row storage into one contiguous slab in
// scan order, and builds the column-major projection from it. Loaded
// rows arrive as individually allocated slices in whatever order the
// loader produced them; after sorting into clustered order a scan would
// chase pointers all over the heap. The slab makes a full scan a
// sequential sweep and frees the per-row allocations.
func (t *Table) compact() {
	width := 0
	for _, r := range t.Rows {
		width += len(r)
	}
	slab := make([]int64, 0, width)
	for i, r := range t.Rows {
		off := len(slab)
		slab = append(slab, r...)
		t.Rows[i] = Row(slab[off:len(slab):len(slab)])
	}
	t.buildCols()
}

// buildCols materializes the table's column-major projection: one
// vector per schema column, carved from a single slab. It doubles the
// table's memory footprint in exchange for transpose-free columnar
// scans; both layouts share the clustered order.
func (t *Table) buildCols() {
	n := len(t.Rows)
	w := t.Schema.Width()
	if n == 0 || w == 0 {
		t.cols = nil
		return
	}
	slab := make([]int64, w*n)
	t.cols = make([][]int64, w)
	for j := 0; j < w; j++ {
		t.cols[j] = slab[j*n : (j+1)*n : (j+1)*n]
	}
	for i, r := range t.Rows {
		for j, v := range r {
			t.cols[j][i] = v
		}
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
// BuildPlan/Collect are not counted.
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
		tab := &Table{Name: name, Schema: NewSchema(t.Columns), Rows: make([]Row, len(rows))}
		for i, r := range rows {
			tab.Rows[i] = Row(r)
		}
		// Respect the catalog's clustered order: the optimizer relies
		// on file scans delivering it.
		if len(t.Ordered) > 0 {
			keys := make([]sortKey, len(t.Ordered))
			for i, c := range t.Ordered {
				keys[i].pos = tab.Schema.Pos(c)
			}
			sortRows(tab.Rows, keys)
		}
		tab.compact()
		db.Add(tab)
	}
	return db
}

// Iterator is the Volcano iterator interface: every query processing
// algorithm consumes zero or more input iterators and produces a stream
// of rows. Every operator in this package is batch-native (see
// BatchIterator); this row-at-a-time view is a thin adapter over the
// operator's current batch.
type Iterator interface {
	// Open prepares the iterator for producing rows.
	Open() error
	// Next returns the next row; ok is false at end of stream.
	Next() (row Row, ok bool, err error)
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
	in := asBatch(it)
	for {
		b, ok, err := in.NextBatch()
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
