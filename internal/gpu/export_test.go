package gpu

// SetNoRateMemo sends every rate computation of two or more running
// kernels through the occupancy pass and waterfill while on is set, and
// returns a func that restores the previous setting.
func SetNoRateMemo(on bool) (restore func()) {
	old := noRateMemo
	noRateMemo = on
	return func() { noRateMemo = old }
}
