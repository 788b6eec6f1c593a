package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// storageTrace renders the /statz storage section's "trace" object.
func storageTrace(t *testing.T, s *Server) string {
	t.Helper()
	b, err := json.Marshal(s.storageStats().(map[string]any)["trace"])
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStatzStorageTrace pins the /statz storage section's "trace" object
// for a flat, a segmented and an empty segmented trace. An empty
// segmented trace has zero segments and must still report as segmented.
// A daemon cannot warm up on an empty trace, so each case renders the
// section over the source the daemon's open returns; the non-empty ones
// are also read off a running daemon's /statz.
func TestStatzStorageTrace(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "base.rrs")
	gcfg := gen.SmallConfig()
	gcfg.Days = fxBaseDays
	if _, err := gen.GenerateToSegFile(gcfg, seg); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.rrs")
	f, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.NewSegEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, tc := range []struct {
		path   string
		daemon bool
		want   string
	}{
		{fxBase, true, `{"format":"flat"}`},
		{seg, true, `{"compressed_bytes":114948,"compression_ratio":0.4423237504473339,"format":"segmented","raw_bytes":259873,"segments":1}`},
		{empty, false, `{"compressed_bytes":0,"compression_ratio":0,"format":"segmented","raw_bytes":0,"segments":0}`},
	} {
		name := filepath.Base(tc.path)
		src, err := trace.OpenTrace(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		s := &Server{}
		s.snap.Store(&Snapshot{Src: src})
		if got := storageTrace(t, s); got != tc.want {
			t.Errorf("%s: storage trace = %s, want %s", name, got, tc.want)
		}
		if !tc.daemon {
			continue
		}
		rec := get(t, newTestServer(t, tc.path, "").Handler(), "/statz")
		var st struct {
			Storage struct {
				Trace json.RawMessage `json:"trace"`
			} `json:"storage"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if got := string(st.Storage.Trace); got != tc.want {
			t.Errorf("%s: daemon /statz storage trace = %s, want %s", name, got, tc.want)
		}
	}
}
