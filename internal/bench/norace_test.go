//go:build !race

package bench

// raceBuild reports a build with the race detector, which slows the
// interpreter and the engine-speed model several-fold.
const raceBuild = false
