//go:build race

package experiment

// raceEnabled lets allocation-pinning tests skip under -race: the race
// runtime drops sync.Pool items at random, so pooled paths allocate more
// and by varying amounts.
const raceEnabled = true
