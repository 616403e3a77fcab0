package lockorder

import (
	"fmt"
	"go/token"
	"sort"
)

// Key identifies one lock in a lock-order graph. Obj carries a comparable
// identity (the lock variable's types.Object, or the expression text
// scoped to its enclosing function); Name is the human-readable label
// diagnostics use.
type Key struct {
	Obj  any
	Name string
}

// BodyID identifies one acquisition context: a function body. Cycles
// whose edges all come from the same body are still reported — the same
// closure can run in two threads — but the body shows up in the
// diagnostic.
type BodyID struct {
	ID   any
	Name string
}

// Edge is one observed ordering: From was held while To was acquired.
type Edge struct {
	From, To Key
	Body     BodyID
	// Tag is the source position of the call that acquired To.
	Tag token.Pos
	// Gates are the other locks held at the acquisition. Two opposing
	// edges that share a gate lock cannot interleave into a deadlock (the
	// gate serializes them): the standard Goodlock refinement.
	Gates map[Key]bool
}

// Cycle is a set of edges forming a lock-order cycle — a potential
// deadlock.
type Cycle struct {
	Edges []Edge
}

// Locks returns the cycle's lock names, sorted.
func (c Cycle) Locks() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range c.Edges {
		if !seen[e.From.Name] {
			seen[e.From.Name] = true
			out = append(out, e.From.Name)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the cycle compactly for reports and tests.
func (c Cycle) String() string {
	s := ""
	for _, e := range c.Edges {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s->%s (%s)", e.From.Name, e.To.Name, e.Body.Name)
	}
	return s
}

// Graph accumulates acquisition orders from any number of bodies and
// reports cycles. The zero value is not ready; use NewGraph.
type Graph struct {
	held  map[BodyID][]Key
	edges []Edge
}

// NewGraph returns an empty lock-order graph.
func NewGraph() *Graph {
	return &Graph{held: make(map[BodyID][]Key)}
}

// Acquire records that body acquired lock at tag, adding ordering edges
// from every lock the body already holds. Re-acquiring a held lock adds no
// edges (self-deadlock is a different bug class, caught dynamically).
func (g *Graph) Acquire(body BodyID, lock Key, tag token.Pos) {
	held := g.held[body]
	for _, h := range held {
		if h == lock {
			return
		}
	}
	for _, h := range held {
		gates := make(map[Key]bool, len(held)-1)
		for _, o := range held {
			if o != h {
				gates[o] = true
			}
		}
		g.edges = append(g.edges, Edge{From: h, To: lock, Body: body, Tag: tag, Gates: gates})
	}
	g.held[body] = append(held, lock)
}

// Release records that body released lock. Unmatched releases are
// ignored — source analysis is an approximation.
func (g *Graph) Release(body BodyID, lock Key) {
	held := g.held[body]
	for i, h := range held {
		if h == lock {
			g.held[body] = append(held[:i:i], held[i+1:]...)
			return
		}
	}
}

// Cycles returns the potential-deadlock cycles: pairs of gate-disjoint
// opposing edges (the ABBA class), one cycle per unordered lock pair,
// preferring the first edge pair in insertion order so reports are
// deterministic.
func (g *Graph) Cycles() []Cycle {
	reported := make(map[[2]Key]bool)
	var out []Cycle
	for i, e1 := range g.edges {
		for j := i + 1; j < len(g.edges); j++ {
			e2 := g.edges[j]
			if e1.From != e2.To || e1.To != e2.From {
				continue
			}
			pair := [2]Key{e1.From, e1.To}
			if pair[1].Name < pair[0].Name {
				pair[0], pair[1] = pair[1], pair[0]
			}
			if reported[pair] || gatesIntersect(e1.Gates, e2.Gates) {
				continue
			}
			reported[pair] = true
			out = append(out, Cycle{Edges: []Edge{e1, e2}})
		}
	}
	return out
}

// gatesIntersect reports whether the two edges share a gate lock.
func gatesIntersect(a, b map[Key]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}
