package main

import "debugdet/internal/plane"

var a = plane.Accuracy(nil, nil)
