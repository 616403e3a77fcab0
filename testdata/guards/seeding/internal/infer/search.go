package infer

func prioritize() {}
