package core

// Executions returns how many production runs have executed.
func Executions() int64 { return executions.Load() }
