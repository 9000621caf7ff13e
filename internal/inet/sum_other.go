//go:build !amd64

package inet

// This architecture has no vector kernel: Sum runs the generic word loop
// on all of data, and sumVector is never called.
const haveAVX2 = false

func sumVector(s uint64, data []byte) (uint64, []byte) { return s, data }
