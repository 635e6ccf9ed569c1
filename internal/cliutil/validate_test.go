package cliutil

import (
	"strings"
	"testing"
	"time"
)

// TestCommandFlagProfiles mirrors each command's validation expression
// one row per binary, so the audit of "which cmd validates what" lives in
// a test the next flag addition has to keep honest.
func TestCommandFlagProfiles(t *testing.T) {
	type flags struct {
		threshold, pimgLimit, pimgTh int
		samples, frames, cluster     int
		bias                         float64
		budget, interval             time.Duration
	}
	good := flags{samples: 10, bias: 0.5, budget: time.Minute,
		interval: time.Second, cluster: 2500}

	profile := map[string]func(f flags) error{
		"bddlab": func(f flags) error {
			return NonNegative("threshold", f.threshold)
		},
		"bddcount": func(f flags) error {
			return Check(NonNegative("samples", f.samples), Fraction("bias", f.bias))
		},
		"bddtop": func(f flags) error {
			return Check(PositiveDuration("interval", f.interval), NonNegative("frames", f.frames))
		},
		"mc": func(f flags) error {
			return NonNegativeDuration("budget", f.budget)
		},
		"reach": func(f flags) error {
			return Check(NonNegative("threshold", f.threshold),
				NonNegative("pimg-limit", f.pimgLimit), NonNegative("pimg-threshold", f.pimgTh),
				NonNegativeDuration("budget", f.budget), Positive("cluster", f.cluster))
		},
		"tables": func(f flags) error {
			return NonNegativeDuration("budget", f.budget)
		},
		"bddserve": func(f flags) error {
			return Check(Positive("quota", f.cluster), PositiveDuration("deadline", f.budget))
		},
	}

	cases := []struct {
		name   string
		cmds   []string // profiles the mutation must fail under
		mutate func(*flags)
		want   string
	}{
		{"negative threshold",
			[]string{"bddlab", "reach"},
			func(f *flags) { f.threshold = -1 }, "-threshold -1 is negative"},
		{"negative budget",
			[]string{"mc", "reach", "tables"},
			func(f *flags) { f.budget = -time.Second }, "is negative"},
		{"negative samples",
			[]string{"bddcount"},
			func(f *flags) { f.samples = -5 }, "-samples -5 is negative"},
		{"bias above one",
			[]string{"bddcount"},
			func(f *flags) { f.bias = 1.5 }, "outside [0, 1]"},
		{"zero interval",
			[]string{"bddtop"},
			func(f *flags) { f.interval = 0 }, "must be positive"},
		{"negative pimg limit",
			[]string{"reach"},
			func(f *flags) { f.pimgLimit = -2 }, "-pimg-limit -2 is negative"},
		{"non-positive cluster",
			[]string{"reach", "bddserve"},
			func(f *flags) { f.cluster = 0 }, "must be positive"},
		{"negative deadline",
			[]string{"bddserve"},
			func(f *flags) { f.budget = -time.Second }, "must be positive"},
		{"zero deadline",
			[]string{"bddserve"},
			func(f *flags) { f.budget = 0 }, "-deadline 0s must be positive"},
	}

	// Sane defaults pass everywhere.
	for cmd, validate := range profile {
		if err := validate(good); err != nil {
			t.Errorf("%s rejected sane flags: %v", cmd, err)
		}
	}
	for _, tc := range cases {
		for _, cmd := range tc.cmds {
			validate, ok := profile[cmd]
			if !ok {
				t.Fatalf("%s: unknown command %q", tc.name, cmd)
			}
			f := good
			tc.mutate(&f)
			err := validate(f)
			if err == nil {
				t.Errorf("%s: %s accepted bad flags", tc.name, cmd)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s: got %q, want substring %q", tc.name, cmd, err, tc.want)
			}
		}
	}
}

// TestCheckShortCircuits: Check returns the first failure in order.
func TestCheckShortCircuits(t *testing.T) {
	if err := Check(nil, NonNegative("x", -1), Positive("y", 0)); err == nil ||
		!strings.Contains(err.Error(), "-x") {
		t.Fatalf("Check returned %v, want the first failure (-x)", err)
	}
	if err := Check(nil, nil); err != nil {
		t.Fatalf("Check of nils returned %v", err)
	}
}
