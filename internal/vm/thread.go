package vm

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"debugdet/internal/trace"
)

// errMachineStopped is panicked through a parked thread's stack when the
// machine halts, so the coroutine unwinds promptly. It never escapes
// threadMain.
var errMachineStopped = errors.New("vm: machine stopped")

// opCode identifies a pending thread operation. Codes are distinct from
// event kinds because several ops (try-variants, timeouts, panic) map onto
// the same event kinds with different blocking behaviour.
type opCode uint8

const (
	opNone opCode = iota
	opLoad
	opStore
	opLock
	opUnlock
	opSend
	opRecv
	opTrySend
	opTryRecv
	opRecvTimeout
	opInput
	opOutput
	opYield
	opSleep
	opObserve
	opSpawn
	opExit
	opFail
	opCrash
	opPanic
	opDiskWrite
	opDiskRead
	opDiskFsync
	opDiskBarrier
	opDiskCrash
)

// opTable describes each operation: its name, as thread inspection renders
// it, and the kind of event applying it emits. A try-variant (try) emits a
// yield instead when its channel cannot serve it: a try-send on a full
// channel, a try-recv or recv-timeout on an empty one. An unlock by a
// non-owner emits a crash, which no peek foresees.
var opTable = [...]struct {
	name string
	kind trace.EventKind
	try  bool
}{
	opNone:        {"idle", trace.EvNone, false},
	opLoad:        {"load", trace.EvLoad, false},
	opStore:       {"store", trace.EvStore, false},
	opLock:        {"lock", trace.EvLock, false},
	opUnlock:      {"unlock", trace.EvUnlock, false},
	opSend:        {"send", trace.EvSend, false},
	opRecv:        {"recv", trace.EvRecv, false},
	opTrySend:     {"try-send", trace.EvSend, true},
	opTryRecv:     {"try-recv", trace.EvRecv, true},
	opRecvTimeout: {"recv-timeout", trace.EvRecv, true},
	opInput:       {"input", trace.EvInput, false},
	opOutput:      {"output", trace.EvOutput, false},
	opYield:       {"yield", trace.EvYield, false},
	opSleep:       {"sleep", trace.EvSleep, false},
	opObserve:     {"observe", trace.EvObserve, false},
	opSpawn:       {"spawn", trace.EvSpawn, false},
	opExit:        {"exit", trace.EvExit, false},
	opFail:        {"fail", trace.EvFail, false},
	opCrash:       {"crash", trace.EvCrash, false},
	opPanic:       {"panic", trace.EvCrash, false},
	opDiskWrite:   {"disk-write", trace.EvDiskWrite, false},
	opDiskRead:    {"disk-read", trace.EvDiskRead, false},
	opDiskFsync:   {"disk-fsync", trace.EvDiskFsync, false},
	opDiskBarrier: {"disk-barrier", trace.EvDiskBarrier, false},
	opDiskCrash:   {"disk-crash", trace.EvDiskCrash, false},
}

// opReq is a pending operation, filled in by the thread before parking.
type opReq struct {
	code      opCode
	site      trace.SiteID
	obj       trace.ObjID
	val       trace.Value
	deadline  uint64 // absolute virtual time for sleep/timeout
	msg       string
	childName string
	childBody func(*Thread)
}

// Thread is a virtual thread. Program bodies receive a *Thread and perform
// all shared-state operations through it. A Thread must only be used from
// its own body function: an operation on another thread's *Thread crashes
// the calling thread. A body runs on a coroutine of whichever goroutine
// drives the machine, so it must not block on a host channel or lock (the
// driver, and every other thread, would block with it) and must not call
// runtime.Goexit — testing's FailNow included: the Goexit ends the driving
// goroutine, which releases the other threads on its way out.
type Thread struct {
	m    *Machine
	name string
	body func(*Thread)

	// h is the coroutine running the body (see host), nil before launch
	// and once the body has returned.
	h *host

	pending opReq
	result  trace.Value

	// feed puts the thread in restore mode: every op method answers with the
	// next recorded outcome (fed) before building a request, until the feed
	// is exhausted and the thread parks at its first live operation (or
	// finishes); Restore then drops it. See vm.Restore.
	feed    []FeedEntry
	feedPos int

	// Enabled-set links (enabledset.go): waitNext on the wait list of the
	// mutex or channel the pending op is conditional on, timedNext on the
	// machine's timed list.
	waitNext, timedNext *Thread

	// The small fields share two words: with the links, the struct stays in
	// its allocation size class (TestThreadSizeClass).
	id       trace.ThreadID
	resultOK bool
	taint    trace.Taint
	daemon   bool
	done     bool
	timed    bool // on the timed list
	ready    bool // in the ready slice
}

// Daemon reports whether the thread is a daemon (see SpawnDaemon).
func (t *Thread) Daemon() bool { return t.daemon }

// ID returns the thread's ID (main is 0; children are numbered in spawn
// order).
func (t *Thread) ID() trace.ThreadID { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Now returns the current virtual time. Reading the clock is not a
// scheduling point.
func (t *Thread) Now() uint64 { return t.m.clock }

// Taint returns the thread's accumulated taint register.
func (t *Thread) Taint() trace.Taint { return t.taint }

// ClearTaint resets the taint register. Programs call it at request
// boundaries so per-request provenance is meaningful.
func (t *Thread) ClearTaint() { t.taint = trace.TaintNone }

// AddTaint ORs bits into the taint register (used by workloads that model
// out-of-band provenance).
func (t *Thread) AddTaint(x trace.Taint) { t.taint |= x }

// syscall submits the request an op has just written into t.pending and
// waits until it is applied. It is the live path only: every op asks fed
// first, so a restoring thread answers from its feed and never gets here until
// the feed is exhausted, and a foreign caller has already panicked.
//
// Fast path: when this thread holds the inline scheduling baton (the
// driver is suspended inside resume), the thread runs the scheduling step
// itself — pick, then apply if the scheduler chose it again — with no
// coroutine switch. The decision sequence, clock, event trace and
// scheduler state evolve exactly as on the slow path; only the stack
// executing the bookkeeping differs.
//
// Slow path: yield to the driver and wait for it to apply the op. Taken
// when the scheduler picks another thread (the decision is stashed in
// m.picked so it is not taken twice), when the op could end this thread
// or start another coroutine (exit, fail, crash, spawn — the driver's
// stack does those), or when the machine stopped during an inline apply
// (releaseAll unwinds us).
func (t *Thread) syscall() trace.Value {
	m := t.m
	if m.inlineOwner == t && inlineEligible(t.pending.code) && !(m.pauseAt > 0 && m.seq >= m.pauseAt) {
		if next := m.pickNext(); next == t {
			m.applyOp(t)
			m.checkStepLimit()
			if !m.stopped {
				return t.result
			}
			// Terminal event applied inline: hand the baton back so the
			// machine can release every thread, ourselves included.
		} else {
			m.picked, m.pickedValid = next, true
		}
	}
	t.h.yield(struct{}{})
	if m.stopped {
		panic(errMachineStopped)
	}
	return t.result
}

// fed is asked by every op before it builds a request. On a restoring
// thread it returns the next recorded outcome (feed replay, see Restore),
// which the op returns with no request, scheduling, event, shared-state
// effect or stored result. On a live thread used by its own body it is two
// inlined compares returning nil: the op then writes its request and calls
// syscall.
func (t *Thread) fed(code opCode) *FeedEntry {
	if t.feedPos < len(t.feed) || t.m.current != t {
		return t.consumeFeed(code)
	}
	return nil
}

// consumeFeed is the one reader of a feed. An operation on another thread's
// *Thread panics here, on the calling body's stack: threadMain makes it that
// thread's crash event (or restore error) and t, parked elsewhere, is
// untouched. The kind check turns a mismatched feed (corrupted recording, or
// a body whose locals depend on something outside the operation results)
// into a restore error instead of silent divergence.
func (t *Thread) consumeFeed(code opCode) *FeedEntry {
	if t.m.current != t {
		panic(fmt.Sprintf("vm: thread %q used from thread %q's body", t.name, t.m.current.name))
	}
	fe := &t.feed[t.feedPos]
	if !feedCompatible(code, fe.Kind) {
		t.parkRestoreError(fmt.Sprintf("restore divergence: op %s, feed has %s event", OpName(uint8(code)), fe.Kind))
	}
	t.feedPos++
	t.taint |= fe.Taint
	t.resultOK = fe.OK
	return fe
}

// parkRestoreError aborts a feed replay from the thread's own stack: it
// parks with an opPanic pending op carrying the message, which the restore
// driver reports as the restore error, and unwinds once resumed.
func (t *Thread) parkRestoreError(msg string) {
	t.pending = opReq{code: opPanic, msg: msg}
	t.h.yield(struct{}{})
	panic(errMachineStopped)
}

// inlineEligible reports whether an op may be applied on the issuing
// thread's own stack. Excluded are ops that terminate the thread (exit,
// fail, crash — their apply must be followed by the driver-side unwind
// protocol) and spawn (startThread switches to the child, which only the
// driver does: a thread always yields to the driver, never to its parent).
func inlineEligible(code opCode) bool {
	//lint:exhaustive-default the four excluded ops are listed exhaustively; every other op is inline-eligible
	switch code {
	case opExit, opFail, opCrash, opSpawn:
		return false
	}
	return true
}

// op is the entry of every operation whose request is a code, site, object,
// value and deadline. A restoring thread's outcome comes from fed before any
// request exists; a live thread writes its request into t.pending field by
// field, with no request built elsewhere and copied in, and submits it. The outcome is read in place — the feed entry's
// value or t.result.
func (t *Thread) op(code opCode, site trace.SiteID, obj trace.ObjID, val trace.Value, deadline uint64) *trace.Value {
	if fe := t.fed(code); fe != nil {
		return &fe.Val
	}
	p := &t.pending
	p.code, p.site, p.obj, p.val, p.deadline = code, site, obj, val, deadline
	p.msg, p.childName, p.childBody = "", "", nil
	t.syscall()
	return &t.result
}

// Load reads a memory cell.
func (t *Thread) Load(site trace.SiteID, cell trace.ObjID) trace.Value {
	return *t.op(opLoad, site, cell, trace.Nil, 0)
}

// Store writes a memory cell.
func (t *Thread) Store(site trace.SiteID, cell trace.ObjID, v trace.Value) {
	t.op(opStore, site, cell, v, 0)
}

// Add atomically adds delta to an integer cell and returns the new value.
// It is a single operation (no race window), modelling an atomic RMW
// instruction.
func (t *Thread) Add(site trace.SiteID, cell trace.ObjID, delta int64) trace.Value {
	if fe := t.fed(opStore); fe != nil {
		return fe.Val
	}
	t.pending = opReq{code: opStore, site: site, obj: cell, val: trace.Int(delta), msg: "add"}
	return t.syscall()
}

// Lock acquires a mutex, blocking until it is free.
func (t *Thread) Lock(site trace.SiteID, mu trace.ObjID) {
	t.op(opLock, site, mu, trace.Nil, 0)
}

// Unlock releases a mutex. Unlocking a mutex the thread does not own
// crashes the execution.
func (t *Thread) Unlock(site trace.SiteID, mu trace.ObjID) {
	t.op(opUnlock, site, mu, trace.Nil, 0)
}

// Send enqueues v on a channel, blocking while it is full.
func (t *Thread) Send(site trace.SiteID, ch trace.ObjID, v trace.Value) {
	t.op(opSend, site, ch, v, 0)
}

// Recv dequeues from a channel, blocking while it is empty.
func (t *Thread) Recv(site trace.SiteID, ch trace.ObjID) trace.Value {
	return *t.op(opRecv, site, ch, trace.Nil, 0)
}

// TrySend enqueues v if the channel has room and reports whether it did.
// It never blocks; a full channel drops nothing and returns false.
func (t *Thread) TrySend(site trace.SiteID, ch trace.ObjID, v trace.Value) bool {
	t.op(opTrySend, site, ch, v, 0)
	return t.resultOK
}

// TryRecv dequeues if the channel is nonempty. It never blocks.
func (t *Thread) TryRecv(site trace.SiteID, ch trace.ObjID) (trace.Value, bool) {
	v := *t.op(opTryRecv, site, ch, trace.Nil, 0)
	return v, t.resultOK
}

// RecvTimeout dequeues from a channel, giving up after d virtual cycles.
// The second result is false on timeout.
func (t *Thread) RecvTimeout(site trace.SiteID, ch trace.ObjID, d uint64) (trace.Value, bool) {
	v := *t.op(opRecvTimeout, site, ch, trace.Nil, t.m.clock+d)
	return v, t.resultOK
}

// Input obtains the next value from an environment stream. The value comes
// from the machine's InputSource (or, under replay, from the forcing
// layer); its taint class is the stream's declared class.
func (t *Thread) Input(site trace.SiteID, stream trace.ObjID) trace.Value {
	return *t.op(opInput, site, stream, trace.Nil, 0)
}

// Output emits a value on an environment stream. Outputs are the program's
// observable behaviour; failure specifications are predicates over them.
func (t *Thread) Output(site trace.SiteID, stream trace.ObjID, v trace.Value) {
	t.op(opOutput, site, stream, v, 0)
}

// Yield is a pure scheduling point.
func (t *Thread) Yield(site trace.SiteID) {
	t.op(opYield, site, 0, trace.Nil, 0)
}

// Sleep blocks the thread for at least d virtual cycles.
func (t *Thread) Sleep(site trace.SiteID, d uint64) {
	t.op(opSleep, site, 0, trace.Nil, t.m.clock+d)
}

// Observe emits an invariant probe: a named value sample that invariant
// inference consumes. probe identifies the observation point within the
// site.
func (t *Thread) Observe(site trace.SiteID, probe trace.ObjID, v trace.Value) {
	t.op(opObserve, site, probe, v, 0)
}

// Spawn starts a new thread running body and returns its ID. The child is
// runnable immediately; whether it runs before the parent's next operation
// is a scheduling decision.
func (t *Thread) Spawn(site trace.SiteID, name string, body func(*Thread)) trace.ThreadID {
	return t.spawn(site, name, body, "")
}

// SpawnDaemon starts a daemon thread: a service thread (network pump,
// server loop) that does not keep the machine alive. When every non-daemon
// thread has exited, the run completes cleanly regardless of daemon state,
// and daemons blocked forever do not count as a deadlock.
func (t *Thread) SpawnDaemon(site trace.SiteID, name string, body func(*Thread)) trace.ThreadID {
	return t.spawn(site, name, body, "daemon")
}

// spawn is Spawn, or SpawnDaemon when msg is "daemon".
func (t *Thread) spawn(site trace.SiteID, name string, body func(*Thread), msg string) trace.ThreadID {
	if fe := t.fed(opSpawn); fe != nil {
		return t.restoreSpawn(fe.Val.AsInt(), name, body, msg == "daemon")
	}
	t.pending = opReq{code: opSpawn, site: site, childName: name, childBody: body, msg: msg}
	return trace.ThreadID(t.syscall().AsInt())
}

// DiskWrite appends a record to a simulated disk. The record is volatile
// (lost on DiskCrash) until an fsync or barrier makes it durable.
func (t *Thread) DiskWrite(site trace.SiteID, disk trace.ObjID, v trace.Value) {
	t.op(opDiskWrite, site, disk, v, 0)
}

// DiskRead returns the disk record at index idx (0 = oldest), or Nil when
// idx is past the end of the log. Reading is how recovery code scans the
// device after a crash: records never hold Nil, so a Nil result is
// end-of-log. The record's provenance joins the thread's taint register.
func (t *Thread) DiskRead(site trace.SiteID, disk trace.ObjID, idx int) trace.Value {
	return *t.op(opDiskRead, site, disk, trace.Nil, uint64(idx))
}

// DiskFsync flushes the disk's volatile records and returns the durability
// watermark (how many records now survive a crash). Under the
// fsync-reordering fault one chosen fsync acknowledges with the newest
// record still volatile — a correct program compares the returned watermark
// against what it wrote, or uses DiskBarrier where durability is load-bearing.
func (t *Thread) DiskFsync(site trace.SiteID, disk trace.ObjID) int64 {
	return t.op(opDiskFsync, site, disk, trace.Nil, 0).AsInt()
}

// DiskBarrier is a full write-through flush: every record becomes durable,
// fault plane or not. It returns the durability watermark.
func (t *Thread) DiskBarrier(site trace.SiteID, disk trace.ObjID) int64 {
	return t.op(opDiskBarrier, site, disk, trace.Nil, 0).AsInt()
}

// DiskCrash models a whole-node power loss from the device's point of view:
// the volatile tail of the log disappears (modulo the torn-write fault,
// which may leave a truncated first volatile record behind) while durable
// records persist. It returns how many records survived. The calling thread
// keeps running — it plays the rebooted node, wiping its own volatile cells
// and re-reading the disk, so crash-restart stays inside one execution.
func (t *Thread) DiskCrash(site trace.SiteID, disk trace.ObjID) int64 {
	return t.op(opDiskCrash, site, disk, trace.Nil, 0).AsInt()
}

// Fail reports a program-detected failure (an assertion on the program's
// own I/O specification) and halts the machine.
func (t *Thread) Fail(site trace.SiteID, format string, args ...any) {
	if t.fed(opFail) == nil {
		t.pending = opReq{code: opFail, site: site, msg: fmt.Sprintf(format, args...)}
		t.syscall()
	}
	panic("unreachable: machine must stop on Fail")
}

// Crash models a fault (segfault, fatal error) at the given site and halts
// the machine.
func (t *Thread) Crash(site trace.SiteID, format string, args ...any) {
	if t.fed(opCrash) == nil {
		t.pending = opReq{code: opCrash, site: site, msg: fmt.Sprintf(format, args...)}
		t.syscall()
	}
	panic("unreachable: machine must stop on Crash")
}

// exit is the implicit final op of every thread body.
func (t *Thread) exit() {
	t.op(opExit, 0, 0, trace.Nil, 0)
}

// newThread allocates a thread record, or re-zeroes the one a recycled
// machine's run left in its slot; the coroutine starts in startThread.
func (m *Machine) newThread(name string, body func(*Thread)) *Thread {
	n := len(m.threads)
	var t *Thread
	if n < cap(m.threads) {
		t = m.threads[:n+1][n]
	}
	if t == nil {
		t = new(Thread)
	}
	*t = Thread{m: m, id: trace.ThreadID(n), name: name, body: body}
	m.threads = append(m.threads, t)
	m.live++
	m.liveNonDaemon++
	return t
}

// startThread launches t, which runs until it parks at its first operation
// (every thread parks at least once: exit is an op), and registers that op.
func (m *Machine) startThread(t *Thread) {
	m.launch(t)
	m.park(t)
}

// host is a coroutine (iter.Pull) of the goroutine driving the machine,
// running one thread body at a time. When the body returns the host lets go
// of the thread (t.h = nil) and, without a pool, returns, ending the
// coroutine. With one (see Hosts) it parks idle on its machine's idle list
// instead: a later launch on the machine gives it its next thread, and
// Finish gives it back to the pool for the search's other machines. An idle
// host resumed with no thread returns.
type host struct {
	t     *Thread // the thread whose body runs; nil while idle
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// Hosts is a pool of idle hosts, shared by the machines of one search (see
// Recycle): a launch runs its thread on one of them instead of on a new
// coroutine. It is safe for concurrent use; a nil *Hosts is no pool.
type Hosts struct {
	mu   sync.Mutex
	idle []*host
}

// take returns an idle host, or nil when there is none.
func (p *Hosts) take() (h *host) {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		h, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	return h
}

func (p *Hosts) put(hs []*host) {
	p.mu.Lock()
	p.idle = append(p.idle, hs...)
	p.mu.Unlock()
}

// Close ends the idle hosts' coroutines. Call it once no machine using the
// pool runs or will run: every host is idle then, its machine finished.
func (p *Hosts) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, h := range idle {
		h.next() // given no thread, the host returns
	}
}

// launch puts t's body on a host — an idle one of the machine's, else of the
// pool's, else a new one — and runs it until it parks at an operation (true)
// or returns (false, which only a feed-replayed thread can). No stop
// function is kept: a parked thread is ended by resuming it on a stopped
// machine (releaseAll).
func (m *Machine) launch(t *Thread) bool {
	var h *host
	if n := len(m.idle); n > 0 {
		h, m.idle = m.idle[n-1], m.idle[:n-1]
	} else if h = m.hosts.take(); h == nil {
		h = new(host)
		pool := m.hosts
		h.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			h.yield = yield
			for t := h.t; t != nil; t = h.t {
				t.m.threadMain(t)
				h.t, t.h = nil, nil
				if pool == nil {
					return
				}
				t.m.idle = append(t.m.idle, h)
				yield(struct{}{})
			}
		})
	}
	h.t, t.h = t, h
	return m.switchTo(t)
}

// switchTo runs t on the calling goroutine until it parks (true) or its body
// has returned (false), its host having let go of it. A runtime.Goexit in
// the body surfaces here.
func (m *Machine) switchTo(t *Thread) bool {
	m.current = t
	_, ok := t.h.next()
	return ok && t.h != nil
}

// threadMain runs the thread body, converting returns into exit ops and
// panics into crash events. errMachineStopped unwinds silently.
func (m *Machine) threadMain(t *Thread) {
	defer func() {
		r := recover()
		if r == nil || r == errMachineStopped { //nolint:errorlint // sentinel identity
			return
		}
		// A genuine panic in workload code: surface it as a crash event
		// so the failure is part of the execution model rather than
		// tearing down the host process.
		t.pending = opReq{code: opPanic, msg: fmt.Sprint(r)}
		t.h.yield(struct{}{})
		// The machine stops on the crash; nothing more to do.
	}()
	t.body(t)
	t.exit()
}

// resume lets a thread continue after its op was applied. If the thread
// finished (exit, panic) its body returns; otherwise it holds the inline
// scheduling baton until it parks at a future operation — possibly many
// inline steps later.
func (m *Machine) resume(t *Thread) {
	m.schedHandoffs++
	if !t.done && !m.cfg.disableInline {
		m.inlineOwner = t
	}
	m.switchTo(t)
	m.inlineOwner = nil
}
