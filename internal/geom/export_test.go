package geom

// DiffExtension2 is diffExtension2 for the external tests, which may import
// the workload generator.
var DiffExtension2 = diffExtension2
