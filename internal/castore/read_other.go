//go:build !linux

package castore

import (
	"io"
	"os"
	"syscall"
	"time"
)

// readEntry reads one entry file whole and returns its bytes, size and
// mtime; ok is false when the file is missing, is not a regular file, or
// cannot be read in full. A file over maxFrameLen comes back unread: ok,
// with its size and a nil buf.
//
// Opening through syscall.Open and os.NewFile keeps a blocking descriptor
// out of the runtime poller: os.Open would set it non-blocking, offer it
// to the poller, which refuses a regular file, and set it blocking again,
// five system calls for nothing.
func readEntry(path string) (buf []byte, size int64, mtime time.Time, ok bool) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, 0, time.Time{}, false
	}
	f := os.NewFile(uintptr(fd), path)
	defer f.Close()
	info, err := f.Stat()
	if err != nil || !info.Mode().IsRegular() {
		return nil, 0, time.Time{}, false
	}
	if info.Size() > maxFrameLen {
		return nil, info.Size(), info.ModTime(), true
	}
	buf = make([]byte, info.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, 0, time.Time{}, false
	}
	return buf, info.Size(), info.ModTime(), true
}
