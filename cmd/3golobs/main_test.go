package main

import (
	"reflect"
	"slices"
	"testing"

	"threegol/internal/obs"
)

// A Metrics field that no NewMetrics registers stays nil, and a nil
// handle records nothing without complaint; METRICS.md cannot show what
// was never registered either. This test is the check that can.
func TestNewMetricsFillsEveryHandle(t *testing.T) {
	handles := []reflect.Type{
		reflect.TypeOf((*obs.Counter)(nil)),
		reflect.TypeOf((*obs.Gauge)(nil)),
		reflect.TypeOf((*obs.Histogram)(nil)),
	}
	checked := 0
	for _, m := range instruments(obs.NewRegistry()) {
		v := reflect.ValueOf(m)
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || !slices.Contains(handles, f.Type) {
				continue
			}
			checked++
			if v.Field(i).IsNil() {
				t.Errorf("%s.%s is declared but NewMetrics never registers it", v.Type(), f.Name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no obs handles to check")
	}
}
