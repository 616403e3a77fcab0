// Package sim is the public workload-programming surface of the debugdet
// SDK: the deterministic virtual machine its scenarios run on.
//
// Programs are written against the Thread API — cells, mutexes, channels,
// input/output streams — and every shared-state operation is interposed by
// the machine, so executions are bit-reproducible from a seed: the
// property recorders and replayers need and a native Go scheduler cannot
// provide. The companion types in debugdet/scen describe a program plus
// its failure specification as a Scenario; debugdet/trace carries the
// event model.
//
// Every type is an alias for the engine-internal definition, so
// user-authored workloads interoperate with the built-in corpus and the
// record/replay engines without conversion.
//
// Architecture: DESIGN.md §1 (the deterministic VM) covers the execution
// model and how threads are hosted on coroutines; DESIGN.md §5 (time-travel
// replay) covers the snapshot/restore machinery this package also exposes.
package sim
