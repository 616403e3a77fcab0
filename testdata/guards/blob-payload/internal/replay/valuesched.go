package replay

func payload(e *Event) []byte { return e.Val.Bytes }
