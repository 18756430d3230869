package hil_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/hil"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
)

// captureCases are the bench runs whose capture bytes are pinned: the
// follow scenario with each of the held injection windows the offline
// benchmark inputs use, and the jittered, noisy vehicle-log preset.
var captureCases = []struct {
	name string
	run  func() (*hil.Bench, error)
}{
	{"follow-TargetRange-NaN", func() (*hil.Bench, error) { return heldInjection(1, sigdb.SigTargetRange, math.NaN()) }},
	{"follow-TargetRange-0.5", func() (*hil.Bench, error) { return heldInjection(2, sigdb.SigTargetRange, 0.5) }},
	{"follow-Velocity-80", func() (*hil.Bench, error) { return heldInjection(3, sigdb.SigVelocity, 80) }},
	{"follow-ACCSetSpeed-5", func() (*hil.Bench, error) { return heldInjection(4, sigdb.SigACCSetSpeed, 5) }},
	{"follow-TargetRelVel-30", func() (*hil.Bench, error) { return heldInjection(5, sigdb.SigTargetRelVel, -30) }},
	{"drivecycle-seed1", func() (*hil.Bench, error) {
		b, err := hil.New(scenario.DriveCycle(1))
		if err != nil {
			return nil, err
		}
		return b, b.Run(scenario.DriveCycleDuration, nil)
	}},
}

// heldInjection runs a 60 s follow capture with one fault held over a
// seeded window, the way the offline benchmark generates its archived
// HIL captures.
func heldInjection(seed int64, signal string, value float64) (*hil.Bench, error) {
	const captureLen = 60 * time.Second
	rng := rand.New(rand.NewSource(seed))
	start := time.Duration(10+rng.Intn(20)) * time.Second
	hold := time.Duration(5+rng.Intn(16)) * time.Second
	b, err := hil.New(scenario.Follow(seed, captureLen))
	if err != nil {
		return nil, err
	}
	return b, b.Run(captureLen, func(now time.Duration, b *hil.Bench) error {
		switch now {
		case start:
			return b.SetInjection(signal, value)
		case start + hold:
			b.ClearInjection(signal)
		}
		return nil
	})
}

// TestCaptureDigests pins the exact bytes the bench puts on the bus.
// The verdict goldens only notice a capture change that flips a
// verdict; these SHA-256 digests of Log.WriteTo notice any change to a
// frame's time, ID or payload, so bench-internal refactors must leave
// them alone. A mismatch is a behaviour change of the co-simulation.
func TestCaptureDigests(t *testing.T) {
	want := readDigests(t, "testdata/capture_digests.txt")
	for _, c := range captureCases {
		b, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		if _, err := b.Log().WriteTo(h); err != nil {
			t.Fatalf("%s: WriteTo: %v", c.name, err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if got != want[c.name] {
			t.Errorf("%s: capture digest %s, want %s (%d frames)", c.name, got, want[c.name], b.Log().Len())
		}
	}
}

// readDigests parses "name digest" lines, skipping # comments.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, digest, ok := strings.Cut(line, " "); ok {
			out[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
