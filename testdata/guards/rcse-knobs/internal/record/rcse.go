package record

const RaceSampleRate = 0.5
