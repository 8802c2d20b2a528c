// Fixture for the wallclock analyzer. Type-checked under a
// deterministic package path (parms/internal/merge) by the test
// harness, so the analyzer applies.
package wallclock

import (
	"math/rand"
	"time"
)

func badTime() {
	_ = time.Now()                 // want `wallclock: time\.Now reads the host clock`
	time.Sleep(time.Second)        // want `wallclock: time\.Sleep reads the host clock`
	_ = time.Since(time.Time{})    // want `wallclock: time\.Since reads the host clock`
	_ = time.After(time.Second)    // want `wallclock: time\.After reads the host clock`
	_ = time.Tick(time.Second)     // want `wallclock: time\.Tick reads the host clock`
	_ = time.NewTimer(time.Second) // want `wallclock: time\.NewTimer reads the host clock`
}

func badRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `wallclock: rand\.Shuffle draws from the global wall-seeded source`
	return rand.Intn(7)                // want `wallclock: rand\.Intn draws from the global wall-seeded source`
}

func goodSeeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // seeded: legal
	return rng.Float64()                  // method on *rand.Rand: legal
}

func goodConstants() time.Duration {
	// Duration arithmetic and value constructors never read the clock.
	_ = time.Unix(0, 0)
	d, _ := time.ParseDuration("2s")
	return d + 2*time.Second
}
