// Package rel defines a relational data model for the Volcano optimizer
// generator: a catalog with table and column statistics, a logical
// algebra (GET, SELECT, JOIN, PROJECT, INTERSECT, GROUPBY), scalar
// predicates, and logical properties with selectivity estimation.
//
// The package is one *model input* to the generator framework in
// internal/core — the framework itself knows nothing about relations.
// The companion package internal/relopt supplies the rules, algorithms,
// and cost functions that turn this algebra into a working optimizer.
package rel

import "fmt"

// ColID identifies a column within one Catalog. IDs are dense and
// stable; the zero value is invalid.
type ColID int32

// InvalidCol is the zero ColID.
const InvalidCol ColID = 0

// ColumnMeta carries the statistics the optimizer's selectivity
// estimation uses, System R style: distinct-value count and value range.
type ColumnMeta struct {
	// Table and Name identify the column.
	Table, Name string
	// Distinct is the number of distinct values in the column.
	Distinct int64
	// Min and Max bound the column's integer domain.
	Min, Max int64
}

// Qualified returns the column's display name, e.g. "emp.dept".
func (c *ColumnMeta) Qualified() string { return c.Table + "." + c.Name }

// Table describes one stored relation.
type Table struct {
	// Name is the relation name.
	Name string
	// Index is the table's dense registration index, used for table
	// bitsets in logical properties.
	Index int
	// Rows is the relation's cardinality.
	Rows int64
	// RowBytes is the record width in bytes.
	RowBytes int
	// Columns lists the table's columns in declaration order.
	Columns []ColID
	// Ordered is the table's stored (clustered) sort order; empty for
	// unordered heaps. A file scan delivers this order for free.
	Ordered []ColID
}

// Catalog holds table and column metadata plus statistics. It is the
// data the model's logical property functions — which encapsulate
// selectivity estimation — consult.
type Catalog struct {
	tables  map[string]*Table
	names   []string
	columns []ColumnMeta // columns[i] belongs to ColID i+1

	// version counts schema and statistics changes. Plan caches mix it
	// into query fingerprints, so every registration (and every explicit
	// BumpVersion) orphans plans optimized against the old catalog.
	version uint64
}

// Version returns the catalog's current version token; it changes on
// every AddTable/AddColumn and every BumpVersion call.
func (c *Catalog) Version() uint64 { return c.version }

// BumpVersion advances the version token. Call it after mutating
// statistics in place (reloading data, refreshing row counts) so that
// cached plans optimized under the old statistics stop being served.
func (c *Catalog) BumpVersion() { c.version++ }

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// AddTable registers a table with the given cardinality and row width
// and returns it. Columns are added separately with AddColumn.
func (c *Catalog) AddTable(name string, rows int64, rowBytes int) *Table {
	if _, dup := c.tables[name]; dup {
		panic(fmt.Sprintf("rel: duplicate table %q", name))
	}
	t := &Table{Name: name, Index: len(c.names), Rows: rows, RowBytes: rowBytes}
	c.tables[name] = t
	c.names = append(c.names, name)
	c.version++
	return t
}

// AddColumn registers a column on a table and returns its ColID.
func (c *Catalog) AddColumn(t *Table, name string, distinct, min, max int64) ColID {
	if distinct < 1 {
		distinct = 1
	}
	c.columns = append(c.columns, ColumnMeta{
		Table: t.Name, Name: name, Distinct: distinct, Min: min, Max: max,
	})
	id := ColID(len(c.columns))
	t.Columns = append(t.Columns, id)
	c.version++
	return id
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables returns the catalog's table names in registration order.
func (c *Catalog) Tables() []string { return c.names }

// Column returns the metadata for a column ID.
func (c *Catalog) Column(id ColID) *ColumnMeta {
	if id < 1 || int(id) > len(c.columns) {
		panic(fmt.Sprintf("rel: invalid column id %d", id))
	}
	return &c.columns[id-1]
}

// ColumnID looks up a column by table and name, returning InvalidCol if
// absent.
func (c *Catalog) ColumnID(table, name string) ColID {
	t := c.tables[table]
	if t == nil {
		return InvalidCol
	}
	for _, id := range t.Columns {
		if c.columns[id-1].Name == name {
			return id
		}
	}
	return InvalidCol
}

// ResolveColumn looks up a column by name alone, searching all tables.
// It returns InvalidCol when the name is absent or ambiguous.
func (c *Catalog) ResolveColumn(name string) ColID {
	found := InvalidCol
	for id := range c.columns {
		if c.columns[id].Name == name {
			if found != InvalidCol {
				return InvalidCol // ambiguous
			}
			found = ColID(id + 1)
		}
	}
	return found
}

// ColumnNames renders a column ID list for display, sorted input order
// preserved.
func (c *Catalog) ColumnNames(ids []ColID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.Column(id).Qualified()
	}
	return out
}

// TableOf returns the table owning the column.
func (c *Catalog) TableOf(id ColID) *Table { return c.tables[c.Column(id).Table] }
