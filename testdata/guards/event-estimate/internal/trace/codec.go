package trace

func FullEventBytes(e *Event) int { return 0 }
