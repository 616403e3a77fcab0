package main

import _ "debugdet/internal/vm"
