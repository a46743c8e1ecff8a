package core

// bindingArena slab-allocates the Binding nodes and child slices
// retained by cached moves. Bindings cloned out of the matcher used to
// be individually heap-allocated per move; the arena hands out pointers
// into chunked slabs instead, so a whole search's worth of retained
// bindings costs a handful of allocations. Slabs live exactly as long
// as the memo — one query — and are reclaimed wholesale with it.
//
// Slabs are append-only and a new chunk is started whenever the current
// one is full, so previously returned pointers and sub-slices are never
// invalidated by growth.
type bindingArena struct {
	nodes    []Binding
	children []*Binding
}

const arenaChunk = 128

// newBinding returns a zeroed Binding from the arena.
func (a *bindingArena) newBinding() *Binding {
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]Binding, 0, arenaChunk)
	}
	a.nodes = a.nodes[:len(a.nodes)+1]
	b := &a.nodes[len(a.nodes)-1]
	*b = Binding{}
	return b
}

// childSlice returns a zeroed slice of n binding pointers with capacity
// exactly n, carved from the arena.
func (a *bindingArena) childSlice(n int) []*Binding {
	if n == 0 {
		return nil
	}
	if cap(a.children)-len(a.children) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.children = make([]*Binding, 0, size)
	}
	s := a.children[len(a.children) : len(a.children)+n : len(a.children)+n]
	a.children = a.children[:len(a.children)+n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// cloneBinding deep-copies a binding into the arena; the matcher
// recycles its frames as the enumeration unwinds, so retained bindings
// need their own copies.
func (m *Memo) cloneBinding(b *Binding) *Binding {
	c := m.arena.newBinding()
	c.Expr, c.Group = b.Expr, b.Group
	if len(b.Children) > 0 {
		c.Children = m.arena.childSlice(len(b.Children))
		for i, ch := range b.Children {
			c.Children[i] = m.cloneBinding(ch)
		}
	}
	return c
}
