package replay

import machine "debugdet/internal/vm"

func run() { machine.New(machine.Config{}) }
