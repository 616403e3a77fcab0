package core

type RaceTriggerOptions struct{}
