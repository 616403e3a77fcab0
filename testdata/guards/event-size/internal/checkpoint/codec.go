package checkpoint

import "debugdet/internal/trace"

var n = trace.EventSize(nil, nil)
