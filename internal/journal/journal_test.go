package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// replayed is one line Open handed to its replay callback.
type replayed struct {
	off  int64
	line string
}

// openAll opens path accepting every line that is valid JSON, the shape
// of every user's replay rule, and returns what replay saw.
func openAll(t *testing.T, path string) (*Log, []replayed) {
	t.Helper()
	var got []replayed
	l, err := Open(path, func(off int64, line []byte) bool {
		if !json.Valid(line) {
			return false
		}
		got = append(got, replayed{off, string(line)})
		return true
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, got
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashAtEveryOffset cuts a multi-record journal at every byte
// offset, as a kill mid-append can, and checks that replay yields
// exactly the complete records before the cut at their offsets, that
// the file is trimmed to them, and that an append after reopening
// leaves a clean file.
func TestCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.jsonl")
	l, _ := openAll(t, path)
	var recs []replayed
	for i := 0; i < 5; i++ {
		line := fmt.Sprintf(`{"key":"k%d","result":%q}`, i, bytes.Repeat([]byte("x"), i*7))
		off, err := l.Append([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, replayed{off, line})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full := readFile(t, path)

	const next = `{"key":"after"}`
	cutPath := filepath.Join(dir, "cut.jsonl")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var want []replayed
		var end int64
		for _, r := range recs {
			if e := r.off + int64(len(r.line)) + 1; e <= int64(cut) {
				want, end = append(want, r), e
			}
		}

		l, got := openAll(t, cutPath)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d: replayed %v, want %v", cut, got, want)
		}
		if trimmed := readFile(t, cutPath); !bytes.Equal(trimmed, full[:end]) {
			t.Fatalf("cut %d: file trimmed to %q, want %q", cut, trimmed, full[:end])
		}
		off, err := l.Append([]byte(next))
		if err != nil || off != end {
			t.Fatalf("cut %d: append after reopen at offset %d (err %v), want %d", cut, off, err, end)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		clean := append(append([]byte{}, full[:end]...), next+"\n"...)
		if after := readFile(t, cutPath); !bytes.Equal(after, clean) {
			t.Fatalf("cut %d: file after append %q, want %q", cut, after, clean)
		}
	}
}

// TestRewriteThenAppend checks compaction: Rewrite replaces the
// contents, appends continue at the new end, and ReadAt serves lines by
// the offsets Append reports.
func TestRewriteThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openAll(t, path)
	for _, line := range []string{`1`, `2`, `3`} {
		if _, err := l.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite([][]byte{[]byte(`"kept"`)}); err != nil {
		t.Fatal(err)
	}
	off, err := l.Append([]byte(`"new"`))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(`"new"`))
	if _, err := l.ReadAt(buf, off); err != nil || string(buf) != `"new"` {
		t.Fatalf("ReadAt(%d) = %q, %v", off, buf, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := string(readFile(t, path)); got != "\"kept\"\n\"new\"\n" {
		t.Fatalf("rewritten log holds %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestFailIsSticky checks that once a record is lost, to an encoding
// failure or a failed write, later appends write nothing and Close
// reports the first loss.
func TestFailIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openAll(t, path)
	first := fmt.Errorf("record 0 unencodable")
	l.Fail(first)
	l.Fail(fmt.Errorf("second"))
	if _, err := l.Append([]byte(`1`)); !errors.Is(err, first) {
		t.Fatalf("append after Fail returned %v, want %v", err, first)
	}
	if err := l.Close(); !errors.Is(err, first) {
		t.Fatalf("Close returned %v, want %v", err, first)
	}
	if data := readFile(t, path); len(data) != 0 {
		t.Fatalf("append after Fail wrote %q", data)
	}
}
