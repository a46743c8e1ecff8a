package core

import "unsafe"

// slab hands out values of T carved from chunks that one memo owns and
// never reallocates, so values handed out stay put. Chunks start small and
// double up to about slabBytes: a search over a few classes pays for
// little, a large one for few allocations.
type slab[T any] struct {
	free []T
	// held is the number of values in every chunk allocated so far.
	held int
}

const (
	slabMin   = 4
	slabBytes = 2048
)

// take returns n zeroed values with capacity exactly n.
func (s *slab[T]) take(n int) []T {
	if cap(s.free)-len(s.free) < n {
		var t T
		size := max(n, slabMin, min(2*cap(s.free), slabBytes/int(unsafe.Sizeof(t))))
		s.free = make([]T, 0, size)
		s.held += size
	}
	i := len(s.free)
	s.free = s.free[:i+n]
	return s.free[i : i+n : i+n]
}

// bytes is the memory the slab's chunks occupy.
func (s *slab[T]) bytes() int {
	var t T
	return s.held * int(unsafe.Sizeof(t))
}

// cloneBinding deep-copies a binding into the memo's slabs; the matcher
// recycles its frames as the enumeration unwinds, so retained bindings
// need their own copies. Retained bindings are read-only, so every leaf
// binding of one class is the same one.
func (m *Memo) cloneBinding(b *Binding) *Binding {
	if b.Expr == nil {
		if int(b.Group) > len(m.leaves) {
			m.leaves = append(m.leaves, make([]*Binding, int(b.Group)-len(m.leaves))...)
		}
		if m.leaves[b.Group-1] == nil {
			m.leaves[b.Group-1] = &m.bindings.take(1)[0]
			m.leaves[b.Group-1].Group = b.Group
		}
		return m.leaves[b.Group-1]
	}
	c := &m.bindings.take(1)[0]
	c.Expr, c.Group = b.Expr, b.Group
	if len(b.Children) > 0 {
		c.Children = m.children.take(len(b.Children))
		for i, ch := range b.Children {
			c.Children[i] = m.cloneBinding(ch)
		}
	}
	return c
}
