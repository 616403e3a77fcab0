package core

import "debugdet/internal/record"

func attach(m, p any) { record.NewRecorder(m, p) }
