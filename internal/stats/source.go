package stats

import "math/rand"

// Source is a checkpointable rand.Source64: it wraps the standard
// library's seeded source and counts draws, so a consumer's RNG state can
// be externalized as the pair (seed, draws) and restored bit-exactly by
// reseeding and fast-forwarding. Both Int63 and Uint64 advance the
// underlying generator by exactly one step, so the draw count fully
// determines the generator state regardless of which *rand.Rand methods
// produced the draws.
//
// Wrapping rand.NewSource (rather than substituting another generator)
// keeps every sampled figure numerically identical to the pre-checkpoint
// pipeline.
type Source struct {
	draws int64
	src   rand.Source64
}

// NewSource returns a counting source seeded with seed.
func NewSource(seed int64) *Source {
	return &Source{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64 — *rand.Rand detects it and uses the
// same one-step path as the standard seeded source.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the draw count.
func (s *Source) Seed(seed int64) {
	s.draws = 0
	s.src.Seed(seed)
}

// Draws returns the number of generator steps taken since the last seed.
func (s *Source) Draws() int64 { return s.draws }

// Restore reseeds the source and fast-forwards it by draws steps,
// reproducing the exact generator state a from-zero consumer had after
// that many draws.
func (s *Source) Restore(seed, draws int64) {
	s.Seed(seed)
	for i := int64(0); i < draws; i++ {
		s.src.Uint64()
	}
	s.draws = draws
}
