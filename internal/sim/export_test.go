package sim

// FlushStepCaches lets the external tests of this directory, which
// drive the simulator through internal/experiments, start from a cold
// step cache.
var FlushStepCaches = flushStepCaches
