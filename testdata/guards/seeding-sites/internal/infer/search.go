package infer

import _ "debugdet/internal/lint/sites"
