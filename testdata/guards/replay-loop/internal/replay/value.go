package replay

import "debugdet/internal/vm"

var s = vm.NewReplayScheduler(nil)
