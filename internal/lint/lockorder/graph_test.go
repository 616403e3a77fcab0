package lockorder

import (
	"go/token"
	"testing"
)

func key(name string) Key    { return Key{Obj: name, Name: name} }
func bid(name string) BodyID { return BodyID{ID: name, Name: name} }

// Acquisition positions; a graph only stores and returns them.
const (
	s1, s2, s3, s4, s2re token.Pos = 1, 2, 3, 4, 5
	g1, g2               token.Pos = 11, 12
	px, py               token.Pos = 21, 22
)

// TestGraphABBA: opposing orders across two bodies form one cycle.
func TestGraphABBA(t *testing.T) {
	g := NewGraph()
	a, b := key("a"), key("b")
	t1, t2 := bid("t1"), bid("t2")
	g.Acquire(t1, a, s1)
	g.Acquire(t1, b, s2)
	g.Release(t1, b)
	g.Release(t1, a)
	g.Acquire(t2, b, s3)
	g.Acquire(t2, a, s4)
	cycles := g.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1: %v", len(cycles), cycles)
	}
	got := cycles[0].Locks()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("cycle locks = %v, want [a b]", got)
	}
	if cycles[0].Edges[0].Tag != s2 {
		t.Fatalf("first edge tag = %v, want %v (first inserted)", cycles[0].Edges[0].Tag, s2)
	}
}

// TestGraphGate: a shared gate lock suppresses the cycle.
func TestGraphGate(t *testing.T) {
	g := NewGraph()
	gate, a, b := key("g"), key("a"), key("b")
	t1, t2 := bid("t1"), bid("t2")
	g.Acquire(t1, gate, g1)
	g.Acquire(t1, a, s1)
	g.Acquire(t1, b, s2)
	g.Release(t1, b)
	g.Release(t1, a)
	g.Release(t1, gate)
	g.Acquire(t2, gate, g2)
	g.Acquire(t2, b, s3)
	g.Acquire(t2, a, s4)
	if cycles := g.Cycles(); len(cycles) != 0 {
		t.Fatalf("gated inversion reported: %v", cycles)
	}
}

// TestGraphDedup: repeated opposing edges report one cycle per lock pair,
// and a re-acquired held lock adds no edges.
func TestGraphDedup(t *testing.T) {
	g := NewGraph()
	a, b := key("a"), key("b")
	t1, t2 := bid("t1"), bid("t2")
	for i := 0; i < 3; i++ {
		g.Acquire(t1, a, s1)
		g.Acquire(t1, b, s2)
		g.Acquire(t1, b, s2re) // no-op: already held
		g.Release(t1, b)
		g.Release(t1, a)
		g.Acquire(t2, b, s3)
		g.Acquire(t2, a, s4)
		g.Release(t2, a)
		g.Release(t2, b)
	}
	if cycles := g.Cycles(); len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1 after dedup: %v", len(cycles), cycles)
	}
}

// TestGraphDisjointPairs: two independent inversions report two cycles.
func TestGraphDisjointPairs(t *testing.T) {
	g := NewGraph()
	t1, t2 := bid("t1"), bid("t2")
	for _, pair := range [][2]Key{{key("a"), key("b")}, {key("c"), key("d")}} {
		g.Acquire(t1, pair[0], px)
		g.Acquire(t1, pair[1], py)
		g.Release(t1, pair[1])
		g.Release(t1, pair[0])
		g.Acquire(t2, pair[1], px)
		g.Acquire(t2, pair[0], py)
		g.Release(t2, pair[0])
		g.Release(t2, pair[1])
	}
	if cycles := g.Cycles(); len(cycles) != 2 {
		t.Fatalf("cycles = %d, want 2: %v", len(cycles), cycles)
	}
}
