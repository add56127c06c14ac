package castore

import (
	"syscall"
	"time"
)

// readEntry reads one entry file whole and returns its bytes, size and
// mtime; ok is false when the file is missing, is not a regular file, or
// cannot be read in full. A file over maxFrameLen comes back unread: ok,
// with its size and a nil buf.
//
// The raw descriptor takes exactly open, fstat, read and close. An
// os.File around it would add an fcntl, a finalizer set and cleared under
// a runtime lock, and poller bookkeeping, which together cost more than
// the I/O on a warm-start hit.
func readEntry(path string) (buf []byte, size int64, mtime time.Time, ok bool) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, 0, time.Time{}, false
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if syscall.Fstat(fd, &st) != nil || st.Mode&syscall.S_IFMT != syscall.S_IFREG {
		return nil, 0, time.Time{}, false
	}
	mtime = time.Unix(st.Mtim.Unix())
	if st.Size > maxFrameLen {
		return nil, st.Size, mtime, true
	}
	buf = make([]byte, st.Size)
	for n := 0; n < len(buf); {
		m, err := syscall.Read(fd, buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil || m == 0 {
			// A file shorter than its fstat is a miss, as io.ReadFull
			// makes it on other systems.
			return nil, 0, time.Time{}, false
		}
		n += m
	}
	return buf, st.Size, mtime, true
}
