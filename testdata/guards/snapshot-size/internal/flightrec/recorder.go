package flightrec

import "debugdet/internal/checkpoint"

var n = checkpoint.SnapshotSize(nil, nil)
