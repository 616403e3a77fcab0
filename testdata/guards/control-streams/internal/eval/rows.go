package eval

import "debugdet/internal/scenario"

func declared(s *scenario.Scenario) []string { return s.ControlStreams }
