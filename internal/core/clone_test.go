package core

import (
	"reflect"
	"testing"
)

// TestResultCloneDeep fills every field of a Result by reflection — every
// slice, map and pointer non-nil, at any depth — clones it, and requires the
// clone to equal the original while sharing none of its memory. A field
// added to Result (or to a struct it embeds) that Clone does not deep-copy
// fails here, before a memoized result can be mutated through another job's
// copy.
func TestResultCloneDeep(t *testing.T) {
	var orig Result
	fill(t, reflect.ValueOf(&orig).Elem(), "Result")
	c := orig.Clone()
	if !reflect.DeepEqual(c, orig) {
		t.Fatal("clone differs from the original")
	}
	noAlias(t, reflect.ValueOf(orig), reflect.ValueOf(c), "Result")

	// Nil stays nil: a clone must not turn an absent table into an empty one.
	var zero Result
	if z := zero.Clone(); !reflect.DeepEqual(z, zero) {
		t.Fatalf("clone of the zero Result = %+v, want the zero Result", z)
	}
}

// fill sets every settable leaf of v to a non-zero value and every slice,
// map and pointer to a non-nil one holding filled elements.
func fill(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), path+"[i]")
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s is unexported; extend this test to reach it", path, v.Type().Field(i).Name)
			}
			fill(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), path+"[i]")
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(t, k, path+"[key]")
		fill(t, e, path+"[val]")
		v.SetMapIndex(k, e)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), "(*"+path+")")
	default:
		t.Fatalf("%s has kind %s, which a Result clone cannot deep-copy", path, v.Kind())
	}
}

// noAlias fails when any slice, map or pointer reachable from b shares its
// backing memory with the corresponding one in a.
func noAlias(t *testing.T, a, b reflect.Value, path string) {
	t.Helper()
	switch a.Kind() {
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			noAlias(t, a.Index(i), b.Index(i), path+"[i]")
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			noAlias(t, a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name)
		}
	case reflect.Slice:
		if a.Len() > 0 && a.Pointer() == b.Pointer() {
			t.Errorf("%s: clone shares the original's backing array", path)
		}
		for i := 0; i < a.Len(); i++ {
			noAlias(t, a.Index(i), b.Index(i), path+"[i]")
		}
	case reflect.Map:
		if !a.IsNil() && a.Pointer() == b.Pointer() {
			t.Errorf("%s: clone shares the original's map", path)
		}
		for _, k := range a.MapKeys() {
			noAlias(t, a.MapIndex(k), b.MapIndex(k), path+"[key]")
		}
	case reflect.Pointer:
		if !a.IsNil() && a.Pointer() == b.Pointer() {
			t.Errorf("%s: clone shares the original's pointee", path)
		}
		if !a.IsNil() && !b.IsNil() {
			noAlias(t, a.Elem(), b.Elem(), "(*"+path+")")
		}
	}
}
