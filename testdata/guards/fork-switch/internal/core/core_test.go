package core

var o = Options{Workers: 1, ForkReplay: true}
