package core

import _ "debugdet/internal/rcse"
