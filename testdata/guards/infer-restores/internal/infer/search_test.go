package infer

import _ "debugdet/internal/checkpoint"
