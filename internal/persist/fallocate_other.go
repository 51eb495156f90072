//go:build !linux

package persist

import (
	"os"
	"syscall"
)

// fallocate has no portable form: mapSegment writes the reserve as zeros.
func fallocate(*os.File, int64, int64) error { return syscall.EOPNOTSUPP }
