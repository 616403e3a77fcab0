package flightrec

import "debugdet/internal/vm"

var feeds = []vm.FeedEntry{{OK: true}}
