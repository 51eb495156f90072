package persist

import (
	"os"
	"syscall"
)

// fallocate reserves [from, to) of f, extending the file with zeros.
func fallocate(f *os.File, from, to int64) error {
	return syscall.Fallocate(int(f.Fd()), 0, from, to-from)
}
