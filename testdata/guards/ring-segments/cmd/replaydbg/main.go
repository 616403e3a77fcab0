package main

import "debugdet"

var o = debugdet.FlightRecorderOptions{SpillDir: "spill", RingSegments: 2}
