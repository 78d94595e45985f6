package fault

import "testing"

// TestSpecErrorTexts pins the exact error of every malformed fault and
// chaos spec class. The two specs share the clause, value and range
// wording but name their own clauses, seeds and classes.
func TestSpecErrorTexts(t *testing.T) {
	cases := []struct {
		text       string
		fault, cha string // "" = accepted
	}{
		{"", "", ""},
		{"seed=3", "", ""},
		{" seed = -4 ", "", ""},
		{"noise", `fault: bad spec clause "noise" (want key=value)`,
			`fault: bad chaos clause "noise" (want key=value)`},
		{"=0.1", `fault: bad spec clause "=0.1" (want key=value)`,
			`fault: bad chaos clause "=0.1" (want key=value)`},
		{"seed=1, =2", `fault: bad spec clause " =2" (want key=value)`,
			`fault: bad chaos clause " =2" (want key=value)`},
		{"seed=1,,seed=2", `fault: bad spec clause "" (want key=value)`,
			`fault: bad chaos clause "" (want key=value)`},
		{"seed= x", `fault: bad seed " x": strconv.ParseInt: parsing "x": invalid syntax`,
			`fault: bad chaos seed " x": strconv.ParseInt: parsing "x": invalid syntax`},
		{"seed=99999999999999999999",
			`fault: bad seed "99999999999999999999": strconv.ParseInt: parsing "99999999999999999999": value out of range`,
			`fault: bad chaos seed "99999999999999999999": strconv.ParseInt: parsing "99999999999999999999": value out of range`},
		{"bogus=0.1", `fault: unknown fault class "bogus"`, `fault: unknown chaos class "bogus"`},
		{"poison=0.1", `fault: unknown fault class "poison"`, ""},
		{"nan=0.1", "", `fault: unknown chaos class "nan"`},
		{"nan=x", `fault: bad value for nan: strconv.ParseFloat: parsing "x": invalid syntax`,
			`fault: unknown chaos class "nan"`},
		{"poison=x", `fault: unknown fault class "poison"`,
			`fault: bad value for poison: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"mult=1e400", `fault: bad value for mult: strconv.ParseFloat: parsing "1e400": value out of range`,
			`fault: unknown chaos class "mult"`},
		{"nan=-0.1", `fault: nan=-0.1 out of range`, `fault: unknown chaos class "nan"`},
		{"drop=NaN", `fault: drop=NaN out of range`, `fault: unknown chaos class "drop"`},
		{"kill-epoch=inf", `fault: unknown fault class "kill-epoch"`, `fault: kill-epoch=+Inf out of range`},
		{"slow-ms=-1", `fault: unknown fault class "slow-ms"`, `fault: slow-ms=-1 out of range`},
		{"nan=1.5", `fault: probability nan=1.5 exceeds 1`, `fault: unknown chaos class "nan"`},
		{"exec-panic=2", `fault: unknown fault class "exec-panic"`, `fault: probability exec-panic=2 exceeds 1`},
		{"mult=16,noise=2", "", `fault: unknown chaos class "mult"`},
		{"fail-first=3,slow-ms=250", `fault: unknown fault class "fail-first"`, ""},
		{"rc-drop=0.5,seed=x", `fault: bad seed "x": strconv.ParseInt: parsing "x": invalid syntax`,
			`fault: unknown chaos class "rc-drop"`},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cases {
		_, err := ParseSpec(c.text)
		if got := errText(err); got != c.fault {
			t.Errorf("ParseSpec(%q) error = %q, want %q", c.text, got, c.fault)
		}
		_, err = ParseChaosSpec(c.text)
		if got := errText(err); got != c.cha {
			t.Errorf("ParseChaosSpec(%q) error = %q, want %q", c.text, got, c.cha)
		}
	}
}

// FuzzSpecRoundTrip: a fault or chaos spec its parser accepts re-parses
// from its String to an equal spec. The zero spec renders as "none",
// which neither parser accepts, so it is skipped.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, text := range []string{
		"", "none", "nan=0", "seed=-7", " noise = 2 , mult=16 ",
		"drop=0.05,inf=0.1,nan=0.1,rc-drop=0.2,rc-penalty=0.1,stuck=0.05,wild=0.15,zero=0.02,seed=7",
		"exec-panic=0.2,fail-first=3,slow-ms=250,poison=1e-9,kill-epoch=0x1p-3,seed=9",
		"nan=-0,inf=1", "journal-err=0.5,journal-slow=1,cache-corrupt=.25",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if s, err := ParseSpec(text); err == nil && s.String() != "none" {
			again, err := ParseSpec(s.String())
			if err != nil || again != s {
				t.Fatalf("ParseSpec(%q) = %+v renders %q, which re-parses to %+v, %v", text, s, s.String(), again, err)
			}
		}
		if s, err := ParseChaosSpec(text); err == nil && s.String() != "none" {
			again, err := ParseChaosSpec(s.String())
			if err != nil || again != s {
				t.Fatalf("ParseChaosSpec(%q) = %+v renders %q, which re-parses to %+v, %v", text, s, s.String(), again, err)
			}
		}
	})
}
