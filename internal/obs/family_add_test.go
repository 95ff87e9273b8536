package obs

import (
	"reflect"
	"testing"
)

// TestFamilyAddCoversEveryField fills every field of each counter
// family with a distinct nonzero value and checks that the family's one
// add folds all of them: adding twice doubles each counter. A field
// added to a family but missed in its add fails here, before every
// folded total silently drops it.
func TestFamilyAddCoversEveryField(t *testing.T) {
	t.Run("CounterSet", func(t *testing.T) { checkFamilyAdd(t, (*CounterSet).add) })
	t.Run("AccumCounters", func(t *testing.T) { checkFamilyAdd(t, (*AccumCounters).add) })
	t.Run("PoolCounters", func(t *testing.T) { checkFamilyAdd(t, (*PoolCounters).add) })
	t.Run("SchedCounters", func(t *testing.T) { checkFamilyAdd(t, (*SchedCounters).add) })
}

// checkFamilyAdd adds one family value twice.
func checkFamilyAdd[C any](t *testing.T, add func(*C, C)) {
	t.Helper()
	var o C
	next := int64(0)
	fillDistinct(t, reflect.ValueOf(&o).Elem(), &next)

	var sum C
	add(&sum, o)
	add(&sum, o)
	compareFolded(t, "o+o", reflect.ValueOf(sum), reflect.ValueOf(o), 2)
}

// fillDistinct sets every int64 leaf of v to the next value of a
// running counter.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Int64:
		*next++
		v.SetInt(*next)
	default:
		t.Fatalf("counter field of kind %v: extend this test", v.Kind())
	}
}

// compareFolded requires every int64 leaf of got to be k times o's.
func compareFolded(t *testing.T, what string, got, o reflect.Value, k int64) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			compareFolded(t, what+"."+got.Type().Field(i).Name, got.Field(i), o.Field(i), k)
		}
	case reflect.Int64:
		if got.Int() != k*o.Int() {
			t.Errorf("%s = %d, want %d", what, got.Int(), k*o.Int())
		}
	}
}
