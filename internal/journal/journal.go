// Package journal is the append-only line log under every file the repo
// resumes from: the harness grid checkpoint, hammerd's job store and the
// coordinator's result-cache spill. Its users bring the record format
// and the replay rule; the file handling is all here.
//
// Durability policy: an Append is one write() and is never fsync'd, so
// it survives the death of the process but not a power loss. A Rewrite
// is atomic and durable: temp file, fsync, rename, fsync of the parent
// directory, so a crash at any point leaves the old log or the new one.
package journal

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Log is an open journal positioned for appending, safe for concurrent use.
type Log struct {
	path string

	mu   sync.Mutex
	f    *os.File // nil once closed, or after a rewrite could not reopen
	size int64    // end of the last complete line: the next append's offset
	err  error    // sticky: the first lost record
}

// Open opens (creating if needed) the log at path and hands replay each
// complete line, without its newline, and the line's offset, in file
// order, until replay returns false. Everything after the last accepted
// line — a torn final line left by a killed append, the first line
// replay rejects and all that follows it — is truncated away, so appends
// produce a clean file. line is valid only during the call.
func Open(path string, replay func(off int64, line []byte) bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	r := bufio.NewReader(f)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		if !replay(off, line[:len(line)-1]) {
			break
		}
		off += int64(len(line))
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, f: f, size: off}, nil
}

// Append writes line and a newline with a single write(), so appends
// never interleave and a kill tears at most the final line, and returns
// the offset the line starts at. It may use line's spare capacity. The
// first failure is sticky: later appends write nothing and return it.
func (l *Log) Append(line []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, os.ErrClosed
	}
	n, err := l.f.Write(append(line, '\n'))
	if err != nil {
		l.err = err
		return 0, err
	}
	l.size += int64(n)
	return l.size - int64(n), nil
}

// Fail makes err the sticky error unless one is set. Users call it for a
// record they could not encode: it is as lost as one whose write failed.
func (l *Log) Fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

// Err returns the sticky error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ReadAt reads len(p) bytes at off, to fetch a line by the offset Open
// or Append reported.
func (l *Log) ReadAt(p []byte, off int64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, os.ErrClosed
	}
	return l.f.ReadAt(p, off)
}

// Rewrite atomically replaces the log's contents with lines (each
// without its newline) and reopens it for appending. If the new file
// cannot be put in place the log goes on appending to the old one; if
// it cannot be reopened after the rename, appends are lost, so that
// error is made sticky.
func (l *Log) Rewrite(lines [][]byte) error {
	var buf bytes.Buffer
	for _, line := range lines {
		buf.Write(line)
		buf.WriteByte('\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf.Bytes())
	if err := syncClose(f, err); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return err
	}
	if l.f != nil {
		l.f.Close() // the replaced file: nothing more is written to it
	}
	if l.f, err = os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644); err != nil {
		if l.err == nil {
			l.err = err
		}
		return err
	}
	l.size = int64(buf.Len())
	dir, err := os.Open(filepath.Dir(l.path))
	if err != nil {
		return err
	}
	return syncClose(dir, nil)
}

// syncClose fsyncs and closes f, returning err or else the first failure.
func syncClose(f *os.File, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close closes the file and returns the sticky error, else the close
// error. Closing twice is harmless.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.err
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
