//go:build muxwise_noratememo

package gpu

// Built with the muxwise_noratememo tag, every device sends each rate
// computation through the occupancy pass, so that a whole-run digest can
// be checked against the one the rate memo gives:
//
//	go test -tags muxwise_noratememo . -run TestEngineRunDigest
func init() { noRateMemo = true }
