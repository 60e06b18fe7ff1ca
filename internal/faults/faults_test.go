package faults

import (
	"math"
	"strings"
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"crash:0.1",
		"flaky:0.2,2",
		"corrupt:0.05,nan",
		"corrupt:0.5,mix",
		"churn:40,0.6",
		"crash:0.1+flaky:0.2,2+corrupt:0.05,mix+churn:40,0.6",
		"crash:1+corrupt:1,blowup",
		"flaky:0.25,5+churn:10,0.5",
	}
	for _, spec := range specs {
		m, err := ParseSpec(spec, 7)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if m == nil {
			t.Fatalf("ParseSpec(%q) = nil model", spec)
		}
		if got := m.String(); got != spec {
			t.Errorf("ParseSpec(%q).String() = %q", spec, got)
		}
		m2, err := ParseSpec(m.String(), 7)
		if err != nil {
			t.Fatalf("re-parse %q: %v", m.String(), err)
		}
		if *m2 != *m {
			t.Errorf("round trip %q: %+v != %+v", spec, m2, m)
		}
	}
}

func TestParseSpecEmpty(t *testing.T) {
	for _, spec := range []string{"", "none", "  none  "} {
		m, err := ParseSpec(spec, 3)
		if err != nil || m != nil {
			t.Errorf("ParseSpec(%q) = %v, %v; want nil, nil", spec, m, err)
		}
		if m.Enabled() || m.NeedsVirtualTime() || m.NeedsTimeout() {
			t.Errorf("nil model reports faults enabled")
		}
		if m.FailCount(1, 2) != 0 || m.Corruption(1, 2) != None || !m.Available(1, 5) {
			t.Errorf("nil model injects faults")
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"crash", "crash:P"},
		{"crash:0", "probability in (0,1]"},
		{"crash:1.5", "probability in (0,1]"},
		{"crash:nan", "probability in (0,1]"},
		{"crash:0.2,3", "crash:P"},
		{"crash:xyz", "invalid syntax"},
		{"flaky:0.5", "flaky:P,R"},
		{"flaky:0.5,0", "flaky:P,R"},
		{"flaky:0.5,1.5", "flaky:P,R"},
		{"flaky:0.5,inf", "flaky:P,R"},
		{"flaky:0.5,1e300", "flaky:P,R"},
		{"flaky:2,1", "probability in (0,1]"},
		{"corrupt:0.5", "corrupt:P,MODE"},
		{"corrupt:0.5,bogus", "unknown corruption mode"},
		{"corrupt:nan,0.5", "probability in (0,1]"},
		{"churn:40", "churn:PERIOD,ONFRAC"},
		{"churn:0,0.5", "churn:PERIOD,ONFRAC"},
		{"churn:40,1", "churn:PERIOD,ONFRAC"},
		{"churn:40,0", "churn:PERIOD,ONFRAC"},
		{"crash:0.1+crash:0.2", "repeats clause"},
		{"meteor:0.5", "unknown clause"},
	}
	for _, c := range cases {
		m, err := ParseSpec(c.spec, 1)
		if err == nil {
			t.Errorf("ParseSpec(%q) = %+v; want error", c.spec, m)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) error %q; want substring %q", c.spec, err, c.wantSub)
		}
	}
}

func TestDrawsAreDeterministicAndSeedSensitive(t *testing.T) {
	a, err := ParseSpec("crash:0.3+flaky:0.3,2+corrupt:0.4,mix+churn:20,0.5", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParseSpec(a.String(), 42)
	c, _ := ParseSpec(a.String(), 43)
	differs := false
	for client := 0; client < 8; client++ {
		for job := 0; job < 32; job++ {
			if a.FailCount(client, job) != b.FailCount(client, job) ||
				a.Corruption(client, job) != b.Corruption(client, job) {
				t.Fatalf("same-seed draws differ at client=%d job=%d", client, job)
			}
			if a.FailCount(client, job) != c.FailCount(client, job) ||
				a.Corruption(client, job) != c.Corruption(client, job) {
				differs = true
			}
		}
		for step := 0; step < 16; step++ {
			tm := float64(step) * 3.7
			if a.Available(client, tm) != b.Available(client, tm) {
				t.Fatalf("same-seed availability differs at client=%d t=%g", client, tm)
			}
		}
	}
	if !differs {
		t.Errorf("seeds 42 and 43 produced identical draw streams")
	}
}

func TestFailCountSemantics(t *testing.T) {
	crash := &Model{Seed: 9, CrashP: 1}
	if got := crash.FailCount(3, 5); got != Forever {
		t.Errorf("CrashP=1 FailCount = %d; want Forever", got)
	}
	flaky := &Model{Seed: 9, FlakyP: 1, FlakyRetries: 3}
	if got := flaky.FailCount(3, 5); got != 3 {
		t.Errorf("FlakyP=1,R=3 FailCount = %d; want 3", got)
	}
	healthy := &Model{Seed: 9, CorruptP: 1, CorruptMode: NaN}
	if got := healthy.FailCount(3, 5); got != 0 {
		t.Errorf("corruption-only FailCount = %d; want 0", got)
	}
	// Crash dominates flaky: with both at p=1 the job crashes.
	both := &Model{Seed: 9, CrashP: 1, FlakyP: 1, FlakyRetries: 2}
	if got := both.FailCount(3, 5); got != Forever {
		t.Errorf("crash+flaky FailCount = %d; want Forever", got)
	}
}

func TestCorruptionModes(t *testing.T) {
	for _, mode := range []Mode{NaN, Inf, Blowup} {
		m := &Model{Seed: 4, CorruptP: 1, CorruptMode: mode}
		if got := m.Corruption(2, 7); got != mode {
			t.Errorf("CorruptP=1 mode %v drew %v", mode, got)
		}
	}
	// Mix resolves to a concrete mode and, across enough jobs, hits all three.
	mix := &Model{Seed: 4, CorruptP: 1, CorruptMode: Mix}
	seen := map[Mode]bool{}
	for job := 0; job < 64; job++ {
		got := mix.Corruption(2, job)
		if got != NaN && got != Inf && got != Blowup {
			t.Fatalf("Mix drew %v", got)
		}
		seen[got] = true
	}
	if len(seen) != 3 {
		t.Errorf("Mix over 64 jobs hit only %d modes", len(seen))
	}
	off := &Model{Seed: 4}
	if got := off.Corruption(2, 7); got != None {
		t.Errorf("CorruptP=0 drew %v", got)
	}
}

func TestChurnDutyCycle(t *testing.T) {
	m := &Model{Seed: 11, ChurnPeriod: 10, ChurnOn: 0.4}
	for client := 0; client < 6; client++ {
		// Sampled on-fraction over many periods approximates ChurnOn.
		on := 0
		const steps = 4000
		for i := 0; i < steps; i++ {
			if m.Available(client, float64(i)*0.25) {
				on++
			}
		}
		frac := float64(on) / steps
		if math.Abs(frac-0.4) > 0.05 {
			t.Errorf("client %d on-fraction %.3f; want ~0.4", client, frac)
		}
		// NextOn lands on an available instant, never in the past, and is the
		// identity when already available.
		for i := 0; i < 100; i++ {
			tm := float64(i) * 0.77
			next := m.NextOn(client, tm)
			if next < tm {
				t.Fatalf("NextOn(%d, %g) = %g went backwards", client, tm, next)
			}
			if m.Available(client, tm) && next != tm {
				t.Fatalf("NextOn(%d, %g) = %g; want identity when available", client, tm, next)
			}
			if !m.Available(client, next) {
				t.Fatalf("NextOn(%d, %g) = %g is not available", client, tm, next)
			}
			if next > tm+m.ChurnPeriod {
				t.Fatalf("NextOn(%d, %g) = %g skipped a full period", client, tm, next)
			}
		}
	}
	// Phases differ across clients (the duty cycles are not in lockstep).
	if m.phase(0) == m.phase(1) && m.phase(1) == m.phase(2) {
		t.Errorf("churn phases identical across clients")
	}
}

// FuzzParseSpec: hostile fault specs must error, never panic; every accepted
// model must carry in-range probabilities, retry counts and churn cycle, and
// round-trip through String.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"", "none", "crash:0.1", "flaky:0.2,2", "corrupt:0.05,nan", "corrupt:0.5,mix", "churn:40,0.6",
		"crash:0.1+flaky:0.2,2+corrupt:0.05,mix+churn:40,0.6", "crash:1+corrupt:1,blowup", "flaky:0.5,inf",
	} {
		f.Add(spec)
	}
	prob := func(p float64) bool { return p == 0 || (p > 0 && p <= 1) }
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseSpec(spec, 7)
		if err != nil || m == nil {
			return
		}
		if !prob(m.CrashP) || !prob(m.FlakyP) || !prob(m.CorruptP) ||
			(m.FlakyP > 0) != (m.FlakyRetries >= 1) || m.FlakyRetries < 0 ||
			(m.CorruptP > 0) != (m.CorruptMode != None) ||
			!(m.ChurnPeriod >= 0 && !math.IsInf(m.ChurnPeriod, 0)) || !(m.ChurnOn >= 0 && m.ChurnOn < 1) ||
			!m.Enabled() {
			t.Fatalf("ParseSpec(%q) accepted %+v", spec, m)
		}
		m2, err := ParseSpec(m.String(), 7)
		if err != nil || *m2 != *m {
			t.Fatalf("ParseSpec(%q) = %+v does not round-trip via %q: %+v, %v", spec, m, m.String(), m2, err)
		}
	})
}
