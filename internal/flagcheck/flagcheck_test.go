package flagcheck

import (
	"strings"
	"testing"
	"time"
)

func TestCheckAccumulates(t *testing.T) {
	var c Check
	c.Positive("queue", 0)
	c.NonNegative("workers", -1)
	c.PositiveInt64("max-body", -5)
	c.PositiveFloat("scale", 0)
	c.AtMostFloat("sweep", 2, 1)
	c.NonNegativeFloat("rate", -0.5)
	c.PositiveDuration("job-timeout", 0)
	c.NonNegativeDuration("timeout", -time.Second)
	c.OneOf("dataflow", "diagonal", "outer", "inner", "row")
	c.OneOf("format", "ELL", "csr", "csc", "coo")
	err := c.Err()
	if err == nil {
		t.Fatal("all-violations check returned nil")
	}
	for _, flag := range []string{"-queue", "-workers", "-max-body", "-scale", "-sweep", "-rate", "-job-timeout", "-timeout", "-dataflow", "-format"} {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("joined error does not name %s: %v", flag, err)
		}
	}
}

func TestCheckPasses(t *testing.T) {
	var c Check
	c.Positive("queue", 64)
	c.NonNegative("workers", 0)
	c.PositiveInt64("max-body", 8<<20)
	c.PositiveFloat("scale", 0.3)
	c.AtMostFloat("sweep", 1, 1)
	c.NonNegativeFloat("rate", 0)
	c.PositiveDuration("job-timeout", time.Minute)
	c.NonNegativeDuration("timeout", 0)
	c.OneOf("dataflow", "row", "outer", "inner", "row")
	c.OneOf("format", "coo", "csr", "csc", "coo")
	if err := c.Err(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
}

func TestOneOfNamesAcceptedSet(t *testing.T) {
	var c Check
	c.OneOf("dataflow", "bogus", "outer", "inner", "row")
	err := c.Err()
	if err == nil {
		t.Fatal("bad enum value accepted")
	}
	for _, frag := range []string{"outer|inner|row", `"bogus"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("violation missing %q: %v", frag, err)
		}
	}
}
