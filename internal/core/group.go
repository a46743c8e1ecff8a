package core

// Group is an equivalence class: two collections, one of equivalent
// logical expressions and one of physical plans, plus the logical
// properties shared by every member and a winner table recording, for
// each combination of physical properties already optimized, the best
// plan found — or a remembered failure. Both optimal plans and failures
// are the "interesting facts" the paper's search algorithm captures for
// possible future use.
type Group struct {
	id GroupID
	// retired counts the retired spellings in exprs.
	retired int32

	// exprs is the collection of logical expressions known to be
	// equivalent. exprs[0] is the expression that created the group.
	// Retired (dead) spellings stay in place, since index-based walks of
	// the list may be on the stack when a merge retires one; retired
	// counts them. A merge drops them when it moves the list to the
	// surviving class.
	exprs []*Expr

	// parents lists every expression (in any class) that consumes this
	// class as an input; retired ones linger and are skipped. When this
	// class gains members, the parents are marked stale so multi-level
	// patterns re-match through the enlarged class (Memo.markStale), and
	// when it merges away they are rehashed.
	parents []*Expr

	// logProps are the logical properties of the class, derived from the
	// creating expression before any optimization, and again by
	// Optimizer.Rederive.
	logProps LogicalProps

	// winners holds the optimization outcome for each (required,
	// excluded) physical property pair optimized so far: a short list,
	// searched by key and then by Equal.
	winners []*winner

	// matches holds every implementation-rule binding of exprs[:matched]
	// (matched is the last field), made at merge epoch matchEpoch.
	// Neither a pattern match nor a rule's condition reads the required
	// physical properties, so every goal on the class collects its moves
	// from one list.
	matches    []*implMatch
	matchEpoch uint64

	// floor memoizes the model's admissible cost floor for the class;
	// floorSet distinguishes a computed nil ("model declined") from
	// not-yet-computed. Logical properties change only through
	// Rederive, which resets the floor, and merges only unite equivalent
	// classes, so one computation per class and model is sound.
	floor    Cost
	floorSet bool

	// explored is set once the group's logical expressions have been
	// expanded to transformation-rule fixpoint.
	explored bool
	// exploring guards against re-entrant exploration through cyclic
	// rule derivations.
	exploring bool
	matched   int32
}

// winner is a winner-table entry: the outcome of optimizing a group for
// one (required, excluded) physical property pair. The excluded vector
// is non-nil only for optimizations of enforcer inputs, where algorithms
// that already qualified for the original requirement are kept out.
type winner struct {
	key      physKey
	props    PhysProps
	excluded PhysProps
	// plan is the best complete plan found, when found; its Cost is the
	// entry's cost. A recorded plan is globally optimal for its property
	// pair: branch-and-bound never prunes a plan cheaper than the winner.
	plan *Plan
	// failedLimit is set when optimization failed; it records the
	// highest cost limit under which failure was established. A later
	// request with a limit not exceeding failedLimit can fail
	// immediately; a request with a higher limit must re-optimize.
	failedLimit Cost
	// inProgress marks the entry while its optimization is on the call
	// stack, so cyclic derivations do not loop.
	inProgress bool
}

// implMatch is a binding of the implementation rule at index rule in the
// model's list, at a class member.
type implMatch struct {
	rule int
	b    *Binding
}

// resetMatches voids the class's match list. The slice is dropped, not
// truncated, so a walk still iterating over the old backing array is
// unaffected.
func (g *Group) resetMatches(epoch uint64) {
	g.matches, g.matched, g.matchEpoch = nil, 0, epoch
}

// ID returns the group's identifier.
func (g *Group) ID() GroupID { return g.id }

// LogicalProps returns the logical properties of the equivalence class.
func (g *Group) LogicalProps() LogicalProps { return g.logProps }

// Exprs returns the logical expressions currently in the class, without
// retired spellings. The slice must not be modified.
func (g *Group) Exprs() []*Expr {
	if g.retired == 0 {
		return g.exprs
	}
	live := make([]*Expr, 0, len(g.exprs)-int(g.retired))
	for _, e := range g.exprs {
		if !e.dead {
			live = append(live, e)
		}
	}
	return live
}

// Explored reports whether the group has been expanded to
// transformation-rule fixpoint.
func (g *Group) Explored() bool { return g.explored }

// winnerKey hashes a (required, excluded) pair.
func winnerKey(props, excluded PhysProps) physKey {
	k := uint64(keyOf(props))
	if excluded != nil {
		k = k*1099511628211 ^ excluded.Hash()
	}
	return physKey(k)
}

// sameExcluded compares excluded vectors, treating nil as distinct from
// every non-nil vector.
func sameExcluded(a, b PhysProps) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// lookupWinner returns the winner entry for the pair, or nil.
func (g *Group) lookupWinner(props, excluded PhysProps) *winner {
	return g.lookupWinnerKeyed(winnerKey(props, excluded), props, excluded)
}

// lookupWinnerKeyed is lookupWinner with the property fingerprint
// precomputed; hot paths derive the key once per goal and reuse it for
// every table access instead of re-hashing the vectors.
func (g *Group) lookupWinnerKeyed(k physKey, props, excluded PhysProps) *winner {
	for _, w := range g.winners {
		if w.key == k && w.props.Equal(props) && sameExcluded(w.excluded, excluded) {
			return w
		}
	}
	return nil
}

// ensureWinnerKeyed returns the winner entry for the pair, creating an
// empty one if none exists. k must be winnerKey(props, excluded).
func (g *Group) ensureWinnerKeyed(k physKey, props, excluded PhysProps) *winner {
	if w := g.lookupWinnerKeyed(k, props, excluded); w != nil {
		return w
	}
	w := &winner{key: k, props: props, excluded: excluded}
	g.winners = append(g.winners, w)
	return w
}

// BestPlan returns the best plan recorded for the given physical
// property vector, or nil if the group has not been successfully
// optimized for it.
func (g *Group) BestPlan(props PhysProps) *Plan {
	if w := g.lookupWinner(props, nil); w != nil {
		return w.plan
	}
	return nil
}
