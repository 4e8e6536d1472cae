package tpu

// LockstepRun is lockstepRun for the tests in package tpu_test, which can
// build the Table I programs.
var LockstepRun = lockstepRun
