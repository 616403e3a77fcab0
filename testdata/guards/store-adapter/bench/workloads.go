package main

func store(rec interface{ Store() any }) any { return rec.Store() }
