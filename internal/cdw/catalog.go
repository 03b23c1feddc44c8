package cdw

import (
	"fmt"
	"strings"
	"sync"

	"etlvirt/internal/sqlparse"
)

// ColType is a resolved CDW column type.
type ColType struct {
	Kind      DKind
	Length    int  // string/bytes max length; 0 = unbounded
	Precision int  // decimal
	Scale     int  // decimal
	National  bool // NVARCHAR/NCHAR
}

// String renders the CDW DDL spelling.
func (t ColType) String() string {
	switch t.Kind {
	case KString:
		name := "VARCHAR"
		if t.National {
			name = "NVARCHAR"
		}
		if t.Length > 0 {
			return fmt.Sprintf("%s(%d)", name, t.Length)
		}
		return name
	case KDecimal:
		return fmt.Sprintf("DECIMAL(%d,%d)", t.Precision, t.Scale)
	case KBytes:
		if t.Length > 0 {
			return fmt.Sprintf("VARBINARY(%d)", t.Length)
		}
		return "VARBINARY"
	default:
		return t.Kind.String()
	}
}

// ResolveType maps a parsed CDW type name to a ColType.
func ResolveType(tn sqlparse.TypeName) (ColType, error) {
	arg := func(i, def int) int {
		if i < len(tn.Args) {
			return tn.Args[i]
		}
		return def
	}
	switch tn.Name {
	case "BOOLEAN", "BOOL":
		return ColType{Kind: KBool}, nil
	case "SMALLINT", "INT", "INTEGER", "BIGINT", "TINYINT":
		return ColType{Kind: KInt}, nil
	case "FLOAT", "DOUBLE", "REAL":
		return ColType{Kind: KFloat}, nil
	case "DECIMAL", "NUMERIC":
		p, s := arg(0, 18), arg(1, 0)
		if p < 1 || p > 18 || s < 0 || s > p {
			return ColType{}, fmt.Errorf("cdw: invalid DECIMAL(%d,%d)", p, s)
		}
		return ColType{Kind: KDecimal, Precision: p, Scale: s}, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return ColType{Kind: KString, Length: arg(0, 0)}, nil
	case "NVARCHAR", "NCHAR":
		return ColType{Kind: KString, Length: arg(0, 0), National: true}, nil
	case "DATE":
		return ColType{Kind: KDate}, nil
	case "TIME":
		return ColType{Kind: KTime}, nil
	case "TIMESTAMP", "DATETIME":
		return ColType{Kind: KTimestamp}, nil
	case "VARBINARY", "BINARY", "BLOB":
		return ColType{Kind: KBytes, Length: arg(0, 0)}, nil
	default:
		return ColType{}, fmt.Errorf("cdw: unknown type %q", tn.Name)
	}
}

// Column is one column of a table.
type Column struct {
	Name    string
	Type    ColType
	NotNull bool
	Default sqlparse.Expr // nil when absent
}

// Table is a heap of rows plus metadata. The engine locks at table
// granularity; DML takes the write lock, scans take the read lock.
type Table struct {
	Name    sqlparse.TableName
	Columns []Column
	// PrimaryKey holds column indexes of the declared primary key. The CDW
	// does NOT enforce it (see Engine.Options.EnforceUniqueness) — the
	// virtualizer emulates enforcement, per the paper.
	PrimaryKey []int
	Unique     [][]int

	mu   sync.RWMutex
	rows [][]Datum
}

// ColIndex returns the index of the named column (case-insensitive) or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Catalog maps names to tables. The default schema is used for unqualified
// names.
type Catalog struct {
	mu            sync.RWMutex
	tables        map[string]*Table
	DefaultSchema string
}

// NewCatalog returns an empty catalog with default schema "public".
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table), DefaultSchema: "public"}
}

func (c *Catalog) key(tn sqlparse.TableName) string {
	schema := tn.Schema
	if schema == "" {
		schema = c.DefaultSchema
	}
	return strings.ToLower(schema) + "." + strings.ToLower(tn.Name)
}

// Lookup finds a table, or returns an engine error with the legacy-style
// "object does not exist" code.
func (c *Catalog) Lookup(tn sqlparse.TableName) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[c.key(tn)]
	if !ok {
		return nil, &Error{Code: CodeNoSuchObject, Msg: fmt.Sprintf("table %s does not exist", tn)}
	}
	return t, nil
}

// Create adds a table. With ifNotExists, creating an existing table is a
// no-op.
func (c *Catalog) Create(t *Table, ifNotExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.key(t.Name)
	if _, ok := c.tables[k]; ok {
		if ifNotExists {
			return nil
		}
		return &Error{Code: CodeObjectExists, Msg: fmt.Sprintf("table %s already exists", t.Name)}
	}
	c.tables[k] = t
	return nil
}

// Drop removes a table. With ifExists, dropping a missing table is a no-op.
func (c *Catalog) Drop(tn sqlparse.TableName, ifExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.key(tn)
	if _, ok := c.tables[k]; !ok {
		if ifExists {
			return nil
		}
		return &Error{Code: CodeNoSuchObject, Msg: fmt.Sprintf("table %s does not exist", tn)}
	}
	delete(c.tables, k)
	return nil
}

// Names returns all table names (diagnostics).
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for k := range c.tables {
		out = append(out, k)
	}
	return out
}
