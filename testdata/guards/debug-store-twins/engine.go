package debugdet

// The forwarders bench/ compiles against may stay in engine.go; a Debug twin may not.
func (e *Engine) DebugStore() {}
