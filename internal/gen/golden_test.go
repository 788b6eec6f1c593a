package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// Trace-file byte goldens: the SHA-256 of what the trace writers put on
// disk for gen.SmallConfig() at seed 1. The figure goldens guard what a
// replay computes; these guard the container bytes themselves, so a
// writer change that keeps every event but moves a header byte, a frame
// cut point or a footer entry fails here. A deliberate format change
// updates them in a commit of its own.
const (
	goldenFlatSHA      = "a447375b1c00dc3d9356c5f085f29dc9ab9e8fdf70ea137008347ce3bf007040"
	goldenSegSHA       = "84074aa0c1073e02afe76f58e1814adfe850155ffea446855ef50c47a9040391"
	goldenSegFlushSHA  = "241343b0272417f6653f42f0576192dec03e0e1f440a2859b88c80d518ef878e"
	goldenFlatFlushSHA = "43aea25f5beb075d7688f1d510ec941cdb0d79850082bed7e1680dc3f83ccbec"
)

// TestTraceBytesGolden pins four files written for gen.SmallConfig() at
// seed 1: GenerateToFile's flat file, GenerateToSegFile's segmented one,
// and a segmented and a flat file whose writer flushes before the first
// event of every day, as a live writer seals days (for the segmented
// file that is one frame per day). For the flushed files the digest also
// covers the file's size after every Flush, so what a tail reader sees
// mid-write is pinned too, not only the closed file.
func TestTraceBytesGolden(t *testing.T) {
	cfg := SmallConfig()
	cfg.Seed = 1
	dir := t.TempDir()
	cases := []struct {
		name, want string
		write      func(path string) []byte // extra digest input before the file bytes
	}{
		{"flat", goldenFlatSHA, func(path string) []byte {
			if _, err := GenerateToFile(cfg, path); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"segmented", goldenSegSHA, func(path string) []byte {
			if _, err := GenerateToSegFile(cfg, path); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"segmented-flush-per-day", goldenSegFlushSHA, func(path string) []byte {
			return writeFlushPerDay(t, cfg, path, func(f *os.File) (flushSink, error) { return trace.NewSegEncoder(f) })
		}},
		{"flat-flush-per-day", goldenFlatFlushSHA, func(path string) []byte {
			return writeFlushPerDay(t, cfg, path, func(f *os.File) (flushSink, error) { return trace.NewEncoder(f) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name)
			h := sha256.New()
			h.Write(c.write(path))
			h.Write(mustReadFile(t, path))
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Fatalf("%s trace: sha256 %s, golden %s", c.name, got, c.want)
			}
		})
	}
}

// flushSink is the trace writer surface writeFlushPerDay drives.
type flushSink interface {
	SetSeed(int64)
	SetMergeDay(int32)
	Write(trace.Event) error
	Flush() error
	Close() error
}

// writeFlushPerDay writes cfg's trace through the writer newEnc returns,
// calling Flush before the first event of every day, and returns the
// file size after each Flush as 8-byte little-endian words.
func writeFlushPerDay(t *testing.T, cfg Config, path string, newEnc func(*os.File) (flushSink, error)) []byte {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := newEnc(f)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(cfg.Seed)
	if cfg.Merge != nil {
		enc.SetMergeDay(cfg.Merge.Day)
	}
	var sizes []byte
	day := int32(-1)
	if _, err := GenerateStream(cfg, func(ev trace.Event) error {
		if ev.Day != day {
			day = ev.Day
			if err := enc.Flush(); err != nil {
				return err
			}
			fi, err := f.Stat()
			if err != nil {
				return err
			}
			sizes = binary.LittleEndian.AppendUint64(sizes, uint64(fi.Size()))
		}
		return enc.Write(ev)
	}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return sizes
}
