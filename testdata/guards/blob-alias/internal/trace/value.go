package trace

func Bytes_(b []byte) Value { return Value{} }
