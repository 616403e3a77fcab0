package scenario

type Scenario struct{ PlaneTruth map[string]bool }
