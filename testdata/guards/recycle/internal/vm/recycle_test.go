package vm_test

import "debugdet/internal/vm"

func reuse(dead *vm.Machine) { vm.Recycle(dead, vm.Config{}, nil) }
