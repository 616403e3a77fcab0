package record

type Recording struct{ SchedComplete bool }
