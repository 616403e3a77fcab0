package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"debugdet"
	"debugdet/sim"
	"debugdet/trace"
)

// runDebug opens the interactive time-travel session: a small REPL over
// Engine.Debug. It reads commands from stdin (or -script, semicolon
// separated, for non-interactive use — the CI smoke test drives it that
// way), so it works both at a terminal and scripted.
func runDebug(scenarioName, in string, seed int64, ckpt int64, script string) {
	if ckpt < 0 {
		fatal(fmt.Errorf("-ckpt must not be negative (got %d; 0 means the default interval)", ckpt))
	}
	var st debugdet.SegmentStore
	if in != "" {
		st = openStore(in)
		if scenarioName == "" {
			scenarioName = st.Meta().Scenario
		}
	}
	s := mustScenario(scenarioName)
	if st == nil {
		// No recording on disk: record the scenario's default failing run
		// under the perfect model on the fly, checkpointed.
		interval := ckpt
		if interval == 0 {
			interval = 64
		}
		rec, _, err := eng.Record(context.Background(), s, debugdet.Perfect, debugdet.Options{
			Seed:               seed,
			CheckpointInterval: interval,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %s: %d events, %d checkpoints\n", s.Name, rec.EventCount, len(rec.Checkpoints))
		st = rec
	}
	d, err := eng.Debug(context.Background(), s, st, debugdet.DebugOptions{Interval: uint64(ckpt)})
	if err != nil {
		fatal(err)
	}
	defer d.Close()

	fmt.Printf("time-travel debugger: %s, %d events, checkpoints at %v\n",
		s.Name, d.Len(), d.Checkpoints())
	fmt.Println(`type "help" for commands`)

	var input io.Reader = os.Stdin
	if script != "" {
		input = strings.NewReader(strings.ReplaceAll(script, ";", "\n"))
	}
	// In scripted (non-interactive) mode a failed command fails the
	// process, so CI smoke drivers need only check the exit status.
	errs := 0
	finish := func() {
		if script != "" && errs > 0 {
			d.Close()
			fatal(fmt.Errorf("%d debug command(s) failed", errs))
		}
	}
	sc := bufio.NewScanner(input)
	for {
		fmt.Printf("(ddbg @%d) ", d.Pos())
		if !sc.Scan() {
			fmt.Println()
			finish()
			return
		}
		// Semicolons separate commands on a line, so piped one-liners
		// ("step 2; threads; quit") work the same as -script.
		for _, part := range strings.Split(sc.Text(), ";") {
			fields := strings.Fields(part)
			if len(fields) == 0 {
				continue
			}
			cmd, args := fields[0], fields[1:]
			if cmd == "quit" || cmd == "q" || cmd == "exit" {
				finish()
				return
			}
			if err := debugCommand(d, cmd, args); err != nil {
				errs++
				fmt.Printf("error: %v\n", err)
			}
		}
	}
}

// debugCommand dispatches one REPL command against the session.
func debugCommand(d *debugdet.DebugSession, cmd string, args []string) error {
	argN := func(def uint64) (uint64, error) {
		if len(args) == 0 {
			return def, nil
		}
		return strconv.ParseUint(args[0], 10, 64)
	}
	switch cmd {
	case "help", "h":
		fmt.Print(`commands:
  step [n]   (s)  execute the next n events (default 1)
  back [n]   (b)  rewind n events (default 1; re-executes from a checkpoint)
  seek <ev>       jump to event ev
  run             run to the end of the recording
  where      (w)  show the cursor and the next recorded event
  threads    (t)  list threads and what they are blocked on
  cells      (c)  dump shared-memory cells
  chans           dump channel buffers
  locks           dump mutex owners
  trace [n]       show n recorded events around the cursor (default 8)
  ckpts           list checkpoint positions
  quit       (q)  leave the debugger
`)
	case "step", "s":
		n, err := argN(1)
		if err != nil {
			return err
		}
		if err := d.Step(n); err != nil {
			return err
		}
		return where(d)
	case "back", "b":
		n, err := argN(1)
		if err != nil {
			return err
		}
		if err := d.Back(n); err != nil {
			return err
		}
		return where(d)
	case "seek":
		if len(args) == 0 {
			return fmt.Errorf("seek needs a target event")
		}
		to, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return err
		}
		if err := d.SeekTo(to); err != nil {
			return err
		}
		return where(d)
	case "run":
		if err := d.SeekTo(d.Len()); err != nil {
			return err
		}
		return where(d)
	case "where", "w":
		return where(d)
	case "threads", "t":
		printThreads(d.Machine())
	case "cells", "c":
		m := d.Machine()
		for i := 0; i < m.NumCells(); i++ {
			id := trace.ObjID(i)
			fmt.Printf("  %-24s = %v\n", m.CellName(id), m.CellValue(id))
		}
	case "chans":
		m := d.Machine()
		for i := 0; i < m.NumChans(); i++ {
			id := trace.ObjID(i)
			fmt.Printf("  %-24s len=%d %v\n", m.ChanName(id), m.ChanLen(id), m.ChanValues(id))
		}
	case "locks":
		m := d.Machine()
		for i := 0; i < m.NumMutexes(); i++ {
			id := trace.ObjID(i)
			owner := "free"
			if tid := m.MutexOwner(id); tid >= 0 {
				owner = fmt.Sprintf("held by %d (%s)", tid, m.ThreadName(tid))
			}
			fmt.Printf("  %-24s %s\n", m.MutexName(id), owner)
		}
	case "trace":
		n, err := argN(8)
		if err != nil {
			return err
		}
		lo := uint64(0)
		if d.Pos() > n/2 {
			lo = d.Pos() - n/2
		}
		for _, e := range d.Events(lo, lo+n) {
			marker := "  "
			if e.Seq == d.Pos() {
				marker = "=>"
			}
			fmt.Printf("%s %v\n", marker, e)
		}
	case "ckpts":
		fmt.Printf("  %v\n", d.Checkpoints())
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

// where prints the cursor position and the next recorded event.
func where(d *debugdet.DebugSession) error {
	if ev, ok := d.Event(); ok {
		fmt.Printf("at %d/%d, next: %v\n", d.Pos(), d.Len(), ev)
	} else {
		fmt.Printf("at %d/%d (end of recording)\n", d.Pos(), d.Len())
	}
	return nil
}

// printThreads renders the thread table of a paused machine.
func printThreads(m *sim.Machine) {
	for _, ti := range m.Threads() {
		kind := ""
		if ti.Daemon {
			kind = " [daemon]"
		}
		fmt.Printf("  %3d %-16s%s %s\n", ti.ID, ti.Name, kind, ti.Status)
	}
}
