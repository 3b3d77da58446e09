package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Column describes one column of a cataloged table.
type Column struct {
	Name string
	Kind Kind
}

// Table is a named collection of equal-length BATs. A table is either
// fully materialized (Define) or lazily loaded (DefineLazy): the schema
// and row count are always resident, but a lazy table's column data is
// materialized on first access through the registered loader — the hook
// persisted datasets (internal/batstore) use so opening a catalog costs
// a manifest read, not a full data load.
type Table struct {
	Schema  string
	Name    string
	Columns []Column
	rows    int

	mu   sync.Mutex
	bats map[string]*BAT
	load func(column string) (*BAT, error) // nil when fully materialized
}

// Rows returns the table's row count. It never triggers a lazy load:
// the count comes from the declared data (Define) or the manifest
// (DefineLazy), so the adaptive planner can size mitosis fan-out
// without touching column files.
func (t *Table) Rows() int { return t.rows }

// Column returns the BAT backing the named column, materializing a lazy
// column on first access. A failed lazy load reports as absent; callers
// that must distinguish corruption from an unknown name (the engine's
// bind path) use ColumnData.
func (t *Table) Column(name string) (*BAT, bool) {
	b, err := t.ColumnData(name)
	return b, err == nil
}

// ColumnData is Column with the lazy-load error surfaced: a corrupt or
// unreadable column file yields the loader's error (naming the segment
// file) instead of a silent miss.
func (t *Table) ColumnData(name string) (*BAT, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.bats[name]; ok {
		return b, nil
	}
	if t.load == nil {
		return nil, fmt.Errorf("storage: unknown column %s.%s.%s", t.Schema, t.Name, name)
	}
	if _, ok := t.ColumnKind(name); !ok {
		return nil, fmt.Errorf("storage: unknown column %s.%s.%s", t.Schema, t.Name, name)
	}
	b, err := t.load(name)
	if err != nil {
		return nil, err
	}
	if kind, _ := t.ColumnKind(name); b.Kind() != kind {
		return nil, fmt.Errorf("storage: lazy column %s.%s.%s loaded as %s, declared %s",
			t.Schema, t.Name, name, b.Kind(), kind)
	}
	if b.Len() != t.rows {
		return nil, fmt.Errorf("storage: lazy column %s.%s.%s loaded %d rows, manifest declares %d",
			t.Schema, t.Name, name, b.Len(), t.rows)
	}
	b.Pin()
	t.bats[name] = b
	return b, nil
}

// ColumnKind returns the declared kind of the named column.
func (t *Table) ColumnKind(name string) (Kind, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c.Kind, true
		}
	}
	return Int, false
}

// Catalog is the in-memory schema registry the SQL binder and the MAL
// sql.bind kernel resolve against. It is safe for concurrent readers and
// writers.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table // key: schema.name
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

func key(schema, name string) string { return schema + "." + name }

// Define registers a table with its columns; the data BATs must all have
// the same length and match the declared kinds.
func (c *Catalog) Define(schema, name string, cols []Column, data map[string]*BAT) error {
	if len(cols) == 0 {
		return fmt.Errorf("storage: table %s.%s has no columns", schema, name)
	}
	rows := -1
	for _, col := range cols {
		b, ok := data[col.Name]
		if !ok {
			return fmt.Errorf("storage: table %s.%s missing data for column %s", schema, name, col.Name)
		}
		if b.Kind() != col.Kind {
			return fmt.Errorf("storage: table %s.%s column %s declared %s but data is %s",
				schema, name, col.Name, col.Kind, b.Kind())
		}
		if rows == -1 {
			rows = b.Len()
		} else if b.Len() != rows {
			return fmt.Errorf("storage: table %s.%s column %s has %d rows, want %d",
				schema, name, col.Name, b.Len(), rows)
		}
	}
	t := &Table{Schema: schema, Name: name, Columns: append([]Column(nil), cols...), rows: rows, bats: make(map[string]*BAT, len(cols))}
	for _, col := range cols {
		data[col.Name].Pin() // a catalog column outlives every run
		t.bats[col.Name] = data[col.Name]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[key(schema, name)] = t
	return nil
}

// DefineLazy registers a table whose column data materializes on first
// access: load is called once per column (under the table's lock) and
// must return a BAT of the declared kind with exactly rows rows. This
// is how a persisted dataset appears in the catalog without an upfront
// full load — binds pull columns in as queries actually scan them.
func (c *Catalog) DefineLazy(schema, name string, cols []Column, rows int, load func(column string) (*BAT, error)) error {
	if len(cols) == 0 {
		return fmt.Errorf("storage: table %s.%s has no columns", schema, name)
	}
	if rows < 0 {
		return fmt.Errorf("storage: table %s.%s has negative row count %d", schema, name, rows)
	}
	if load == nil {
		return fmt.Errorf("storage: table %s.%s registered without a loader", schema, name)
	}
	t := &Table{Schema: schema, Name: name, Columns: append([]Column(nil), cols...), rows: rows,
		bats: make(map[string]*BAT, len(cols)), load: load}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[key(schema, name)] = t
	return nil
}

// Table looks up a table by schema and name.
func (c *Catalog) Table(schema, name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(schema, name)]
	return t, ok
}

// Bind resolves schema.table.column to its backing BAT, the MAL sql.bind
// primitive. On a lazily-loaded table this is where column data comes
// off disk, and a corrupt segment surfaces here as the loader's error —
// a failed scan, never a silent wrong answer.
func (c *Catalog) Bind(schema, table, column string) (*BAT, error) {
	t, ok := c.Table(schema, table)
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %s.%s", schema, table)
	}
	return t.ColumnData(column)
}

// TableNames returns the sorted list of "schema.table" keys, for catalogs
// dumps and the server's metadata command.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for k := range c.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
