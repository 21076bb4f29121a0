package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to Open: it must never panic,
// must trim the file to the lines it accepted, and a second open of what
// it left behind must load exactly the same records and leave exactly
// the same bytes.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"key":"9f86d081deadbeef","grid":"e1","cell":0,"result":3}` + "\n"))
	f.Add([]byte(`{"key":"a","grid":"e1","cell":1,"result":{"x":1}}` + "\n" + `{"key":"b","gr`))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs := openAll(t, path)
		if err := l.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		trimmed := readFile(t, path)
		var accepted bytes.Buffer
		for _, r := range recs {
			accepted.WriteString(r.line + "\n")
		}
		if !bytes.Equal(trimmed, accepted.Bytes()) || !bytes.HasPrefix(data, trimmed) {
			t.Fatalf("file trimmed to %q; accepted lines are %q", trimmed, accepted.Bytes())
		}

		l2, recs2 := openAll(t, path)
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(recs2) != fmt.Sprint(recs) {
			t.Fatalf("reopen replayed %v, first open replayed %v", recs2, recs)
		}
		if again := readFile(t, path); !bytes.Equal(again, trimmed) {
			t.Fatalf("reopen changed the file: %q, then %q", trimmed, again)
		}
	})
}
