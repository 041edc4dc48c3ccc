package check

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"syncsim/internal/machine"
)

// wideResultPins holds a SHA-256 over the JSON of every wide cell's
// machine.Result, with Config and Sched zeroed, keyed bench/ncpuN/model.
// TestDifferentialWide checks each of its runs against them. The golden
// corpus records no per-CPU snoop or cache statistics, the oracle diff
// none at all, and TestSchedulerEquivalence runs the benchmarks at 12 CPUs
// or fewer, so these pins are what holds every Result field of a
// benchmark fixed past 64 CPUs, where every processor set spans more than
// one word. (The invariant checker does not change a Result, and Topopt's
// queue and tts runs produce the same one.) A change that is meant to
// alter simulated behaviour updates the pins in the same commit as the
// golden corpus.
var wideResultPins = map[string]string{
	"Grav/ncpu65/queue":    "d6e53b75852622bdb458667fdfe69294ae454172ba58334b7b1165ced8a2d3dd",
	"Grav/ncpu65/tts":      "a714afd2cf879db21e2d46cfc8ab59d0267aff7e5c2c2690d20a7001fc2a6cab",
	"Grav/ncpu65/wo":       "43b62b26f35d7c5c86b0650423005eaca25538622b8c6c3138f53fb8c95b9e0c",
	"Grav/ncpu128/queue":   "f782e70bc118f24ae5857a0cc2171aa4e474554c9fa0f25be013277ac8893a40",
	"Grav/ncpu128/tts":     "bf96684ffc907b8452d98958e664af7797154d8cfbc6f0a48d778954ad609137",
	"Grav/ncpu128/wo":      "e5ec36eaf4ea5e374865bde3993fddfcc8b467982f9d8d8a0957255736d0c990",
	"Topopt/ncpu65/queue":  "1bd1969ed349784cc4feb1c2d173a0d934e371f798d770042bd996974edbcd6d",
	"Topopt/ncpu65/tts":    "1bd1969ed349784cc4feb1c2d173a0d934e371f798d770042bd996974edbcd6d",
	"Topopt/ncpu65/wo":     "c2cf2c07870b3b2d39438e3afc92ad255651344486f6543eb96b60d2bd0c4bf7",
	"Topopt/ncpu128/queue": "b9acc7af086fabdc19a01235aa34397ea57d6647a9425140b3f4f776aa02cfa7",
	"Topopt/ncpu128/tts":   "b9acc7af086fabdc19a01235aa34397ea57d6647a9425140b3f4f776aa02cfa7",
	"Topopt/ncpu128/wo":    "89223c1d0797487efda07ecec30caf4430e84342e4a65bf20ebc269aab257c4e",
}

// resultFingerprint hashes everything a run simulated: the JSON of res
// without the configuration it echoes and without the run loop's own
// work counters.
func resultFingerprint(t *testing.T, res *machine.Result) string {
	t.Helper()
	r := *res
	r.Config, r.Sched = machine.Config{}, machine.SchedStats{}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
