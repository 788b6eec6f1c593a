package community

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/louvain"
)

// Snapshots freezes the shared graph once per snapshot day for every
// detector of a run: the community Stage's detector and each δ-sweep
// detector read the same graph.Frozen and louvain.Prepared (which
// aliases the Frozen's CSR). Each sharing stage (Share) takes the view
// once per snapshot day; the first take freezes the graph, and once
// every reader has taken it the cache drops its reference, so a snapshot
// lives only as long as the detectors using it.
type Snapshots struct {
	mu      sync.Mutex
	readers int
	taken   int
	day     int32
	frozen  *graph.Frozen
	prep    *louvain.Prepared
}

// join registers one more reader.
func (s *Snapshots) join() *Snapshots {
	s.readers++
	return s
}

// take returns the frozen view of g at day. g must be quiescent (the end
// of day state at the engine's barrier) and read-only until take returns.
func (s *Snapshots) take(day int32, g *graph.Graph) (*graph.Frozen, *louvain.Prepared) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen == nil || s.day != day {
		s.frozen = g.Freeze()
		s.prep = louvain.Prepare(s.frozen)
		s.day, s.taken = day, 0
	}
	f, p := s.frozen, s.prep
	if s.taken++; s.taken >= s.readers {
		s.frozen, s.prep = nil, nil
	}
	return f, p
}
