package plane_test

import _ "debugdet/internal/plane"
