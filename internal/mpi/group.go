package mpi

// Group is an ordered set of base-world logical ranks, as in MPI groups:
// position in the slice is the rank within any communicator built from the
// group (the world, Dup's copy of its parent's, or one of Split's).
type Group struct {
	ranks []Rank
}

// NewGroup builds a group from base ranks (order preserved, must be
// duplicate-free).
func NewGroup(ranks []Rank) *Group {
	return &Group{ranks: append([]Rank(nil), ranks...)}
}

// WorldGroup returns the group {0, ..., n-1}.
func WorldGroup(n int) *Group {
	g := &Group{ranks: make([]Rank, n)}
	for i := range g.ranks {
		g.ranks[i] = Rank(i)
	}
	return g
}

// Size returns the number of ranks in the group.
func (g *Group) Size() int { return len(g.ranks) }

// Base returns the base rank at group position i.
func (g *Group) Base(i Rank) Rank { return g.ranks[int(i)] }
