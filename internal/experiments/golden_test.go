package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current outputs")

// golden pins the paper's numbers at the quick configuration: every DR
// value, diagnosed count, partition count and Figure 3 cell list. The
// shape tests check the paper's qualitative claims; this file checks that
// a refactor reproduces the exact outputs.
type golden struct {
	Table1  []Table1Row    `json:"table1"`
	Table2  []Table2Row    `json:"table2,omitempty"`
	Table3  []SOCRow       `json:"table3,omitempty"`
	Table4  []SOCRow       `json:"table4,omitempty"`
	Figure3 *Figure3Result `json:"figure3"`
	Figure5 []Figure5Row   `json:"figure5,omitempty"`
}

const goldenPath = "testdata/golden.json"

// TestGoldenOutputs compares the experiments' outputs with
// testdata/golden.json, float values by their bits. Table 1 and Figure 3
// always run; the large-circuit and SOC experiments are skipped under
// -short. Regenerate with `go test ./internal/experiments -run Golden
// -update` (never under -short).
func TestGoldenOutputs(t *testing.T) {
	ctx := context.Background()
	cfg := quick
	var got golden
	var err error
	if got.Table1, err = Table1(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if got.Figure3, err = Figure3(); err != nil {
		t.Fatal(err)
	}
	full := !testing.Short()
	if full {
		if got.Table2, err = Table2(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if got.Table3, err = Table3(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if got.Table4, err = Table4(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if got.Figure5, err = Figure5(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}

	if *update {
		if !full {
			t.Fatal("-update needs every experiment; run without -short")
		}
		data, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	compareExact(t, "table1", got.Table1, want.Table1)
	compareExact(t, "figure3", got.Figure3, want.Figure3)
	if full {
		compareExact(t, "table2", got.Table2, want.Table2)
		compareExact(t, "table3", got.Table3, want.Table3)
		compareExact(t, "table4", got.Table4, want.Table4)
		compareExact(t, "figure5", got.Figure5, want.Figure5)
	}
}

// compareExact reports every leaf where got and want differ, comparing
// float64 values by their bits.
func compareExact(t *testing.T, path string, got, want any) {
	t.Helper()
	walkExact(t, path, reflect.ValueOf(got), reflect.ValueOf(want))
}

func walkExact(t *testing.T, path string, g, w reflect.Value) {
	t.Helper()
	switch g.Kind() {
	case reflect.Pointer:
		if g.IsNil() || w.IsNil() {
			if g.IsNil() != w.IsNil() {
				t.Errorf("%s: got nil=%t, want nil=%t", path, g.IsNil(), w.IsNil())
			}
			return
		}
		walkExact(t, path, g.Elem(), w.Elem())
	case reflect.Slice:
		if g.Len() != w.Len() {
			t.Errorf("%s: got %d entries, want %d", path, g.Len(), w.Len())
			return
		}
		for i := 0; i < g.Len(); i++ {
			walkExact(t, fmt.Sprintf("%s[%d]", path, i), g.Index(i), w.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < g.NumField(); i++ {
			walkExact(t, path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
		}
	case reflect.Float64:
		if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
			t.Errorf("%s: got %v (%#x), want %v (%#x)", path, g.Float(), math.Float64bits(g.Float()), w.Float(), math.Float64bits(w.Float()))
		}
	default:
		if !reflect.DeepEqual(g.Interface(), w.Interface()) {
			t.Errorf("%s: got %v, want %v", path, g.Interface(), w.Interface())
		}
	}
}
