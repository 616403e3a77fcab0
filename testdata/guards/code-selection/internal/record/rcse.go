package record

func NewCodeSelector() {}
