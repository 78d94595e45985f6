package trainer

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
)

// TestSweepPointKeyPinned pins the trainer-point/v3 key of one sweep
// point to its hex value, read off the name of the point's disk-cache
// entry: a change to the bytes the key hashes would orphan every cached
// sweep point without a domain bump.
func TestSweepPointKeyPinned(t *testing.T) {
	const want = "c9941d5328d9d84d2b7fc2ccf6411430a6a01056992b708e4cee33c8c1f3d6e4"
	sw := SweepSpec{
		Kernel: "spmspv", L1Type: config.CacheMode,
		Dims: []int{64}, Densities: []float64{0.08}, BandwidthsGBps: []float64{64},
		K: 4, PinFormat: "csr", Seed: 3, Chip: chip,
		EpochScale: 0.2, Warmup: 1, Measure: 2,
	}
	dir := t.TempDir()
	cache, err := engine.NewCache(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 1, Cache: cache})
	if _, err := GenerateEngine(context.Background(), eng, sw, power.PowerPerformance, 2); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range ents {
		if k, ok := strings.CutSuffix(e.Name(), ".bin"); ok {
			keys = append(keys, k)
		}
	}
	if len(keys) != 1 || keys[0] != want {
		t.Fatalf("cached sweep-point keys = %v, want [%s]", keys, want)
	}
}

// change is one perturbation of one input: top names the struct field it
// sits under.
type change struct {
	name, top string
	apply     func(s reflect.Value)
}

// changes lists one change per input of the struct v: every scalar field,
// every slice element and every slice length (grown and shrunk), and the
// same for nested structs. A field of a kind without a rule here fails the
// test, so a new field cannot be left out of a key unnoticed.
func changes(t *testing.T, v reflect.Value, path []int, prefix, top string) []change {
	t.Helper()
	var out []change
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		idx := append(append([]int(nil), path...), i)
		field := func(s reflect.Value) reflect.Value { return s.FieldByIndex(idx) }
		name, tp := prefix+f.Name, top
		if tp == "" {
			tp = f.Name
		}
		switch kind := f.Type.Kind(); kind {
		case reflect.Struct:
			out = append(out, changes(t, v.Field(i), idx, name+".", tp)...)
		case reflect.Slice:
			for e := 0; e < v.Field(i).Len(); e++ {
				checkBumpable(t, name, f.Type.Elem().Kind())
				out = append(out, change{fmt.Sprintf("%s[%d]", name, e), tp,
					func(s reflect.Value) { bump(field(s).Index(e)) }})
			}
			out = append(out,
				change{name + " grown", tp, func(s reflect.Value) {
					sl := field(s)
					sl.Set(reflect.Append(sl, sl.Index(sl.Len()-1)))
				}},
				change{name + " shrunk", tp, func(s reflect.Value) {
					sl := field(s)
					sl.Set(sl.Slice(0, sl.Len()-1))
				}})
		default:
			checkBumpable(t, name, kind)
			out = append(out, change{name, tp, func(s reflect.Value) { bump(field(s)) }})
		}
	}
	return out
}

// checkBumpable fails the test unless bump has a rule for kind k.
func checkBumpable(t *testing.T, name string, k reflect.Kind) {
	t.Helper()
	switch k {
	case reflect.String, reflect.Int, reflect.Int64, reflect.Float64:
	default:
		t.Fatalf("no rule for %s of kind %s: hash it in the key, then add a rule here", name, k)
	}
}

// bump changes a scalar value.
func bump(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	}
}

// TestModelKeyCoversEveryInput: Model's sparseadapt/model/v1 key changes
// with every SweepSpec field, slice element and slice length, with an
// element moved from one grid slice to the next, with the mode, the
// window and every TreeParams field; the trainer-point/v3 key's non-grid
// part changes with every field but the grid slices, the mode and the
// window.
func TestModelKeyCoversEveryInput(t *testing.T) {
	base := func() SweepSpec {
		return SweepSpec{
			Kernel: "spmspv", L1Type: config.CacheMode,
			Dims: []int{64, 96}, Densities: []float64{0.08, 0.12}, BandwidthsGBps: []float64{2, 64},
			K: 4, PinDataflow: "outer", PinFormat: "csr", Seed: 3, Chip: chip,
			EpochScale: 0.2, Warmup: 1, Measure: 2,
		}
	}
	const mode, h = power.EnergyEfficient, 1
	params := ml.DefaultTreeParams()
	point := func(sw SweepSpec, mode power.Mode, h int) engine.Key {
		return sweepHasher("sparseadapt/trainer-point/v3", sw, mode, h).Sum()
	}
	refModel, refPoint := modelKey(base(), mode, h, params), point(base(), mode, h)
	grid := map[string]bool{"Dims": true, "Densities": true, "BandwidthsGBps": true}

	sw := base()
	cs := changes(t, reflect.ValueOf(&sw).Elem(), nil, "", "")
	if len(cs) < 20 {
		t.Fatalf("only %d changes of SweepSpec", len(cs))
	}
	for _, c := range cs {
		sw := base()
		c.apply(reflect.ValueOf(&sw).Elem())
		if modelKey(sw, mode, h, params) == refModel {
			t.Errorf("model/v1 key ignores %s", c.name)
		}
		if !grid[c.top] && point(sw, mode, h) == refPoint {
			t.Errorf("trainer-point/v3 key ignores %s", c.name)
		}
	}

	moved := base()
	moved.BandwidthsGBps = append([]float64{moved.Densities[1]}, moved.BandwidthsGBps...)
	moved.Densities = moved.Densities[:1]
	if modelKey(moved, mode, h, params) == refModel {
		t.Error("model/v1 key ignores an element moved from Densities to BandwidthsGBps")
	}
	if modelKey(base(), power.PowerPerformance, h, params) == refModel || point(base(), power.PowerPerformance, h) == refPoint {
		t.Error("a key ignores the mode")
	}
	if modelKey(base(), mode, 2, params) == refModel || point(base(), mode, 2) == refPoint {
		t.Error("a key ignores the window")
	}
	p := params
	for _, c := range changes(t, reflect.ValueOf(&p).Elem(), nil, "TreeParams.", "") {
		q := params
		c.apply(reflect.ValueOf(&q).Elem())
		if modelKey(base(), mode, h, q) == refModel {
			t.Errorf("model/v1 key ignores %s", c.name)
		}
	}
}
