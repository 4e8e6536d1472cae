package xla

// CompileOracle exposes compileOracle to the external test package,
// which compiles the registered workloads (package workloads imports
// this one).
var CompileOracle = compileOracle
