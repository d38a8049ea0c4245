package logfmt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCreateOpenFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	for _, name := range []string{
		"logs.tsv", "logs.tsv.gz", "logs.jsonl", "logs.jsonl.gz",
		"logs.cdnc", "logs.log",
	} {
		path := filepath.Join(dir, name)
		w, closer, err := CreateFile(path)
		if err != nil {
			t.Fatalf("%s: create: %v", name, err)
		}
		const n = 50
		for i := 0; i < n; i++ {
			r := sampleRecord()
			r.Time = base.Add(time.Duration(i) * time.Second)
			r.Bytes = int64(i)
			if err := w.Write(&r); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
		}
		if w.Count() != n {
			t.Errorf("%s: count = %d", name, w.Count())
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: close writer: %v", name, err)
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("%s: close file: %v", name, err)
		}

		rd, rcloser, err := OpenFile(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		count := int64(0)
		err = rd.ForEach(func(r *Record) error {
			if r.Bytes != count {
				t.Fatalf("%s: record %d has Bytes %d", name, count, r.Bytes)
			}
			count++
			return r.Validate()
		})
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if count != n {
			t.Errorf("%s: read %d records", name, count)
		}
		rcloser.Close()
	}

	// The retired .cdnb binary stream is refused on both sides:
	// CreateFile will not write one (not even as TSV under that name),
	// and OpenFile rejects its "CDNJ1" magic, plain or gzipped, whatever
	// the extension.
	for _, name := range []string{"logs.cdnb", "logs.cdnb.gz"} {
		path := filepath.Join(dir, name)
		if _, _, err := CreateFile(path); !errors.Is(err, ErrRetiredFormat) {
			t.Errorf("CreateFile(%s) err = %v, want ErrRetiredFormat", name, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("CreateFile(%s) left a file behind", name)
		}
	}
	stream := append([]byte("CDNJ1"), 0x10, 0x00)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(stream)
	zw.Close()
	for name, data := range map[string][]byte{
		"old.cdnb": stream, "old.tsv": stream, "old.cdnb.gz": gz.Bytes(),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenFile(path)
		if !errors.Is(err, ErrRetiredFormat) {
			t.Fatalf("OpenFile(%s) err = %v, want ErrRetiredFormat", name, err)
		}
		if !strings.Contains(err.Error(), "jsongen -o FILE.cdnc") {
			t.Errorf("OpenFile(%s) error %q does not say how to regenerate", name, err)
		}
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, _, err := OpenFile("/nonexistent/nope.tsv"); err == nil {
		t.Error("missing file opened")
	}
}

func TestCreateFileBadDir(t *testing.T) {
	if _, _, err := CreateFile("/nonexistent-dir/x.tsv"); err == nil {
		t.Error("bad directory accepted")
	}
}
