package obs

import (
	"reflect"
	"testing"
)

// TestFamilyAddCoversEveryField fills every field of each counter
// family with a distinct nonzero value and checks that the family's one
// add folds all of them: adding twice doubles each counter, subtracting
// twice returns it to zero, and a float gauge takes the folded value
// instead of summing. A field added to a family but missed in its add
// fails here, before every snapshot, Stats.Sub and /metrics total
// silently drops it.
func TestFamilyAddCoversEveryField(t *testing.T) {
	t.Run("CounterSet", func(t *testing.T) { checkFamilyAdd(t, (*CounterSet).add) })
	t.Run("AccumCounters", func(t *testing.T) { checkFamilyAdd(t, (*AccumCounters).add) })
	t.Run("PoolCounters", func(t *testing.T) { checkFamilyAdd(t, (*PoolCounters).add) })
	t.Run("FusedCounters", func(t *testing.T) { checkFamilyAdd(t, (*FusedCounters).add) })
	t.Run("SchedCounters", func(t *testing.T) { checkFamilyAdd(t, (*SchedCounters).add) })
	t.Run("RecalCounters", func(t *testing.T) { checkFamilyAdd(t, (*RecalCounters).add) })
	t.Run("RetryCounters", func(t *testing.T) { checkFamilyAdd(t, (*RetryCounters).add) })
}

// checkFamilyAdd runs the add/sub round trip on one family.
func checkFamilyAdd[C any](t *testing.T, add func(*C, C, int64)) {
	t.Helper()
	var o C
	next := int64(0)
	fillDistinct(t, reflect.ValueOf(&o).Elem(), &next)

	var sum C
	add(&sum, o, 1)
	add(&sum, o, 1)
	compareFolded(t, "o+o", reflect.ValueOf(sum), reflect.ValueOf(o), 2)

	add(&sum, o, -1)
	add(&sum, o, -1)
	compareFolded(t, "o+o-o-o", reflect.ValueOf(sum), reflect.ValueOf(o), 0)
}

// fillDistinct sets every int64 (including array elements) and float64
// leaf of v to the next value of a running counter.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	default:
		t.Fatalf("counter field of kind %v: extend this test", v.Kind())
	}
}

// compareFolded requires every int64 leaf of got to be k times o's and
// every float64 leaf — a gauge — to hold o's value.
func compareFolded(t *testing.T, what string, got, o reflect.Value, k int64) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			compareFolded(t, what+"."+got.Type().Field(i).Name, got.Field(i), o.Field(i), k)
		}
	case reflect.Array:
		for i := 0; i < got.Len(); i++ {
			compareFolded(t, what, got.Index(i), o.Index(i), k)
		}
	case reflect.Int64:
		if got.Int() != k*o.Int() {
			t.Errorf("%s = %d, want %d", what, got.Int(), k*o.Int())
		}
	case reflect.Float64:
		if got.Float() != o.Float() {
			t.Errorf("gauge %s = %v, want %v", what, got.Float(), o.Float())
		}
	}
}
