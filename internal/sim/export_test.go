package sim

// DiffEpochResult exposes diffEpochResult to the external test package.
var DiffEpochResult = diffEpochResult
