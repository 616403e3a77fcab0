package vm

type PendingOp struct {
	Val      int
	ValKnown bool
}
