// Package oodb is a second, object-oriented data model for the Volcano
// optimizer generator, demonstrating the extensibility the paper claims:
// a different logical algebra (class extents, the Open OODB MATERIALIZE
// scope operator for path expressions, selections over object
// attributes), a different physical algebra (extent scan, pointer chase,
// assembled traversal), and a different physical property —
// "assembledness" of complex objects in memory, enforced by the assembly
// operator of Keller, Graefe & Maier (SIGMOD 1991) — all running on the
// unchanged search engine in internal/core. Its optimizer is generated:
// internal/gen/minipath, from internal/gen/testdata/minipath.model,
// wired to the support functions this package supplies.
package oodb

import "fmt"

// Class describes one object class with a stored extent.
type Class struct {
	// Name is the class name.
	Name string
	// Objects is the extent cardinality.
	Objects int64
	// ObjBytes is the average object size.
	ObjBytes int
	// Refs maps reference attributes to their target classes
	// (single-valued references).
	Refs map[string]*Class
	// Scalars maps scalar attributes to their distinct-value counts.
	Scalars map[string]int64
}

// Depth returns the length of the longest reference chain below the
// class (0 for a class without references); the assembly operator's cost
// grows with it, since assembling a complex object fetches its whole
// closure.
func (c *Class) Depth() int {
	depth := 0
	for _, t := range c.Refs {
		if d := t.Depth() + 1; d > depth {
			depth = d
		}
	}
	return depth
}

// Catalog holds the class schema.
type Catalog struct {
	classes map[string]*Class
	names   []string
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return &Catalog{classes: make(map[string]*Class)} }

// AddClass registers a class.
func (c *Catalog) AddClass(name string, objects int64, objBytes int) *Class {
	if _, dup := c.classes[name]; dup {
		panic(fmt.Sprintf("oodb: duplicate class %q", name))
	}
	cls := &Class{
		Name: name, Objects: objects, ObjBytes: objBytes,
		Refs: make(map[string]*Class), Scalars: make(map[string]int64),
	}
	c.classes[name] = cls
	c.names = append(c.names, name)
	return cls
}

// AddRef declares a reference attribute.
func (c *Catalog) AddRef(cls *Class, attr string, target *Class) {
	cls.Refs[attr] = target
}

// AddScalar declares a scalar attribute with a distinct-value count.
func (c *Catalog) AddScalar(cls *Class, attr string, distinct int64) {
	cls.Scalars[attr] = distinct
}

// Class returns the named class, or nil.
func (c *Catalog) Class(name string) *Class { return c.classes[name] }

// Classes returns class names in registration order.
func (c *Catalog) Classes() []string { return c.names }
