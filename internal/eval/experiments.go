package eval

import (
	"fmt"
	"strings"
	"sync"
)

// Run is one pass over the experiment set: the options every artifact is
// generated with, T-FUZZ's generator seed, and the two grids more than one
// artifact reads — Fig1 feeds fig1 and du, Fig2 feeds fig2, df and
// overhead — each evaluated at most once however many of its artifacts
// are rendered.
type Run struct {
	o    Options
	gen  *int64
	fig1 func() ([]Fig1Row, error)
	fig2 func() ([]Cell, error)
}

// NewRun prepares a run; nothing is evaluated until Render. gen is
// TableFuzz's generator seed (nil = the pinned failing defaults).
func NewRun(o Options, gen *int64) *Run {
	return &Run{
		o:    o,
		gen:  gen,
		fig1: sync.OnceValues(func() ([]Fig1Row, error) { return Fig1(o) }),
		fig2: sync.OnceValues(func() ([]Cell, error) { return Fig2(o) }),
	}
}

// experiments is the registry: every artifact of the evaluation, in the
// order `figures -all` prints them (DESIGN.md §3 is the index of what each
// one checks). An artifact exists exactly when it has a row here. Every
// row is a plain function literal so the table is static data: a program
// that links this package for one generator (bench/ calls Fig1) does not
// link, or initialize, the rest through it.
var experiments = []struct {
	name   string
	render func(*Run) (string, error)
}{
	{"fig1", func(r *Run) (string, error) { return rendered(r.fig1, RenderFig1) }},
	{"du", func(r *Run) (string, error) {
		rows, err := r.fig1()
		if err != nil {
			return "", err
		}
		shrink, err := ShrinkCell(r.o)
		if err != nil {
			return "", fmt.Errorf("shrink: %w", err)
		}
		return TableDU(rows, shrink), nil
	}},
	{"fig2", func(r *Run) (string, error) { return rendered(r.fig2, RenderFig2) }},
	{"df", func(r *Run) (string, error) { return rendered(r.fig2, TableDF) }},
	{"overhead", func(r *Run) (string, error) { return rendered(r.fig2, TableOverhead) }},
	{"dynokv", func(r *Run) (string, error) { return table(r, TableDynoKV, RenderTableDynoKV) }},
	{"disk", func(r *Run) (string, error) { return table(r, TableDisk, RenderTableDisk) }},
	{"fuzz", func(r *Run) (string, error) {
		cells, err := TableFuzz(r.o, r.gen)
		if err != nil {
			return "", err
		}
		return RenderTableFuzz(cells, r.gen), nil
	}},
	{"ckpt", func(r *Run) (string, error) { return table(r, TableCheckpoint, RenderTableCheckpoint) }},
}

// rendered runs a row source and prints its rows.
func rendered[T any](rows func() (T, error), render func(T) string) (string, error) {
	v, err := rows()
	if err != nil {
		return "", err
	}
	return render(v), nil
}

// table is rendered for a generator that needs only the run's options.
func table[T any](r *Run, gen func(Options) (T, error), render func(T) string) (string, error) {
	return rendered(func() (T, error) { return gen(r.o) }, render)
}

// Names lists the artifacts in `figures -all` print order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// Render generates the named artifact and returns its text. An unknown
// name is an error that lists the known ones.
func (r *Run) Render(name string) (string, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.render(r)
		}
	}
	return "", fmt.Errorf("unknown artifact %q (have %s)", name, strings.Join(Names(), ", "))
}
