package catalogue_test

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"detobj/internal/catalogue"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
)

// TestBuildersKeepTheFactoryContract: modelcheck.Factory promises a
// fresh configuration on every call, and the engines call a row's
// builder once per start and per rewind whenever an object lacks
// Reset. Called twice, every row's builder must give the same object
// names and share no object between the two configurations, and one
// replay-verified run of each under the same seeded random schedule
// must render byte-equal traces.
func TestBuildersKeepTheFactoryContract(t *testing.T) {
	type row struct {
		name  string
		build func() sim.Config
	}
	rows := []row{
		{"E1", catalogue.E1{Inputs: []sim.Value{0, 10, 20, 30}}.Config},
		{"E3", func() sim.Config {
			cfg, _ := catalogue.E3{K: 3, M: 16, Family: setconsensus.CoveringFamily(3),
				IDs: []int{3, 10, 11}, Inputs: []sim.Value{1003, 1010, 1011}}.Build()
			return cfg
		}},
		{"E4", catalogue.E4{K: 3, Procs: 4}.Config},
		{"E5", func() sim.Config {
			cfg, _ := catalogue.E5{K: 3}.Build()
			return cfg
		}},
		{"E9", catalogue.E9{K: 3, Inputs: []sim.Value{0, 10, 20, 30, 40, 50, 60}}.Config},
	}
	for _, p := range catalogue.E11() {
		rows = append(rows, row{"E11 " + p.ID, p.Config})
	}
	for _, p := range catalogue.E20() {
		rows = append(rows, row{"E20 " + p.ID, p.Config})
	}
	for _, r := range rows {
		a, b := r.build(), r.build()
		names := objectNames(a)
		if got := objectNames(b); !slices.Equal(got, names) {
			t.Errorf("%s: second build has objects %v, first %v", r.name, got, names)
			continue
		}
		for _, name := range names {
			if shared(a.Objects[name], b.Objects[name]) {
				t.Errorf("%s: object %q is shared between two builds", r.name, name)
			}
		}
		if ta, tb := traceOf(t, r.name, a), traceOf(t, r.name, b); ta != tb {
			t.Errorf("%s: two builds run to different traces under one seed:\n%s\n---\n%s", r.name, ta, tb)
		}
	}
}

func objectNames(cfg sim.Config) []string {
	names := make([]string, 0, len(cfg.Objects))
	for name := range cfg.Objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// shared reports whether two objects are one reference. An object held
// by value is copied wherever it goes, so it is never shared.
func shared(x, y sim.Object) bool {
	vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
	if vx.Type() != vy.Type() {
		return false
	}
	switch vx.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		return vx.Pointer() == vy.Pointer()
	}
	return false
}

// traceOf runs cfg once under a seeded random schedule, replay-verified,
// and renders its trace.
func traceOf(t *testing.T, name string, cfg sim.Config) string {
	t.Helper()
	cfg.Scheduler = sim.NewRandom(7)
	cfg.Seed = 7
	cfg.VerifyReplay = true
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Trace.String()
}
