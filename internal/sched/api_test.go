package sched

import (
	"reflect"
	"testing"
)

// TestJobFingerprintCoversEveryInput walks JobRequest's fields by
// reflection and perturbs each one: every field that can change a result
// must change Fingerprint(), and the scheduling-only fields (TimeoutSec,
// Tenant, Priority) must not. A field added later without hashing fails
// here, as does a field of a kind the walk cannot perturb.
func TestJobFingerprintCoversEveryInput(t *testing.T) {
	unhashed := map[string]bool{"TimeoutSec": true, "Tenant": true, "Priority": true}
	base := JobRequest{
		Mode: ModeBatch, Kernel: "spmspv", Matrix: "R04", MatrixMarket: "%%MatrixMarket",
		Scale: "test", Seed: 3, OptMode: "ee", Policy: "hybrid", Tolerance: 0.4,
		Config: "baseline", Faults: "nan=0.1", Count: 2, Counters: false,
		TimeoutSec: 5, Tenant: "a", Priority: "batch",
	}
	want := base.Fingerprint()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		req := base
		v := reflect.ValueOf(&req).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("field %s has kind %s, which this test cannot perturb", f.Name, v.Kind())
		}
		changed := req.Fingerprint() != want
		switch {
		case unhashed[f.Name] && changed:
			t.Errorf("perturbing %s changed the fingerprint; it must not address the result", f.Name)
		case !unhashed[f.Name] && !changed:
			t.Errorf("perturbing %s left the fingerprint unchanged; the key under-hashes", f.Name)
		}
	}
}
