package vm

type SchedSim struct{}
