package evolution

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/trace"
)

// stateEvents is a three-user stream: two users join on day 0, a third on
// day 2, and edges land on days 1, 2 and 4.
var stateEvents = []trace.Event{
	{Kind: trace.AddNode, Day: 0, U: 0, Origin: trace.OriginXiaonei},
	{Kind: trace.AddNode, Day: 0, U: 1, Origin: trace.OriginFiveQ},
	{Kind: trace.AddEdge, Day: 1, U: 0, V: 1},
	{Kind: trace.AddNode, Day: 2, U: 2, Origin: trace.OriginNew},
	{Kind: trace.AddEdge, Day: 2, U: 1, V: 2},
	{Kind: trace.AddEdge, Day: 4, U: 0, V: 2},
}

// TestStateIsPatchAgainstEmpty: SaveState is the patch against a fresh
// stage's mark, LoadState restores it, whatever the stage held before,
// and blobs of the version-1 layout, a whole blob and a patch that
// version-1 code wrote for stateEvents, fail LoadState and LoadPatch
// instead of being read as patches.
func TestStateIsPatchAgainstEmpty(t *testing.T) {
	s := NewStage(DefaultOptions())
	for _, ev := range stateEvents {
		s.OnEvent(nil, ev)
	}
	var whole, patch bytes.Buffer
	if err := s.SaveState(&whole); err != nil {
		t.Fatal(err)
	}
	if err := s.SavePatch(&patch, NewStage(DefaultOptions()).Mark()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), patch.Bytes()) {
		t.Fatal("SaveState differs from the patch against a fresh stage's mark")
	}
	r := NewStage(DefaultOptions())
	for _, ev := range stateEvents[:3] {
		r.OnEvent(nil, ev)
	}
	if err := r.LoadState(whole.Bytes()); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := r.SaveState(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), whole.Bytes()) || r.Mark() != s.Mark() {
		t.Fatal("LoadState of a SaveState blob does not restore the stage")
	}

	for layout, h := range map[string]string{
		"whole": "010300000403000202080202020404020408010603000204020602000000000003000802040408020203000000000000f03f000000000000f03f000000000000f03f020403000000000000f03f000000000000f03f000000000000f03f02080203000202",
		"patch": "01010000000003000004030002020802020204040204080106030002040206020000000000020203000000000000f03f000000000000f03f000000000000f03f020403000000000000f03f000000000000f03f000000000000f03f02080203000202",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewStage(DefaultOptions()).LoadState(b); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("version-1 %s blob: LoadState err %v, want a version error", layout, err)
		}
		if err := NewStage(DefaultOptions()).LoadPatch(b); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("version-1 %s blob: LoadPatch err %v, want a version error", layout, err)
		}
	}
}
