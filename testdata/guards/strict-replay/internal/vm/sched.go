package vm

type ReplayScheduler struct {
	Fallback Scheduler
	Diverged bool
}

type SketchScheduler struct{}
