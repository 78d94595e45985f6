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

// TestDecodeJobRequestRefusesBadUploads: an upload the job could not run
// is refused when the request is decoded, as Validate promises for any
// failure knowable at submission. The bodies are a malformed entry, which
// would otherwise burn every retry before quarantine, and a size line
// above matrix.MaxDim, which would make the job's compression ask for an
// 8 TiB pointer array.
func TestDecodeJobRequestRefusesBadUploads(t *testing.T) {
	for name, body := range map[string]string{
		"malformed-entry": `{"mode":"static","matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n"}`,
		"huge-size":       `{"mode":"static","matrix_market":"%%MatrixMarket matrix coordinate real general\n1099511627776 1099511627776 1\n1 1 1\n"}`,
		"not-mm":          `{"mode":"static","matrix_market":"1 1 1\n"}`,
	} {
		if _, _, err := DecodeJobRequest([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	ok := `{"mode":"static","matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n"}`
	if _, _, err := DecodeJobRequest([]byte(ok)); err != nil {
		t.Errorf("valid upload refused: %v", err)
	}
}
