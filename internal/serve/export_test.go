package serve

// SetNoCoast sends every decode boundary to its engine's handler while on
// is set, and returns a func that restores the previous setting.
func SetNoCoast(on bool) (restore func()) {
	old := noCoast
	noCoast = on
	return func() { noCoast = old }
}
