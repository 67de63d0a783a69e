package summary

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueSetBasics(t *testing.T) {
	s := NewValueSet()
	s.Add("MPEG2")
	s.Add("MPEG2")
	s.Add("H264")
	if !s.Contains("MPEG2") || !s.Contains("H264") {
		t.Fatal("added values must be contained")
	}
	if s.Contains("VP9") {
		t.Fatal("unadded value must not be contained")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d; want 2", s.Len())
	}
}

func TestValueSetRemove(t *testing.T) {
	s := NewValueSet()
	s.Add("x")
	s.Add("x")
	s.Remove("x")
	if !s.Contains("x") {
		t.Fatal("one occurrence should remain")
	}
	s.Remove("x")
	if s.Contains("x") {
		t.Fatal("value should be gone after removing last occurrence")
	}
	s.Remove("x") // removing absent value must be safe
	if s.Len() != 0 {
		t.Fatalf("Len = %d; want 0", s.Len())
	}
}

func TestValueSetMerge(t *testing.T) {
	a, b := NewValueSet(), NewValueSet()
	a.Add("x")
	b.Add("y")
	b.Add("x")
	a.Merge(b)
	if a.Counts["x"] != 2 || a.Counts["y"] != 1 {
		t.Fatalf("merge counts wrong: %v", a.Counts)
	}
	a.Merge(nil) // nil merge is a no-op
	if a.Len() != 2 {
		t.Fatal("nil merge changed set")
	}
}

func TestValueSetValuesSorted(t *testing.T) {
	s := NewValueSet()
	for _, v := range []string{"c", "a", "b"} {
		s.Add(v)
	}
	vals := s.Values()
	if len(vals) != 3 || vals[0] != "a" || vals[1] != "b" || vals[2] != "c" {
		t.Fatalf("Values = %v; want [a b c]", vals)
	}
}

func TestValueSetCloneEqual(t *testing.T) {
	s := NewValueSet()
	s.Add("x")
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone should be Equal")
	}
	c.Add("y")
	if s.Equal(c) {
		t.Fatal("diverged clone should not be Equal")
	}
	if s.Equal(nil) {
		t.Fatal("Equal(nil) must be false")
	}
	// Same length, different values.
	d := NewValueSet()
	d.Add("z")
	if s.Equal(d) {
		t.Fatal("different values should not be Equal")
	}
}

func TestValueSetSizeBytes(t *testing.T) {
	s := NewValueSet()
	s.Add("abcd")
	if got := s.SizeBytes(); got != 4+4+4 {
		t.Fatalf("SizeBytes = %d; want 12", got)
	}
}

func TestBloomBasics(t *testing.T) {
	b := MustBloom(1024, 4)
	b.Add("MPEG2")
	if !b.Contains("MPEG2") {
		t.Fatal("added value must be contained (no false negatives)")
	}
	if b.N != 1 {
		t.Fatalf("N = %d; want 1", b.N)
	}
}

func TestBloomValidation(t *testing.T) {
	if _, err := NewBloom(0, 4); err == nil {
		t.Fatal("expected error for zero bits")
	}
	if _, err := NewBloom(64, 0); err == nil {
		t.Fatal("expected error for zero hashes")
	}
}

func TestBloomMerge(t *testing.T) {
	a, b := MustBloom(512, 3), MustBloom(512, 3)
	a.Add("x")
	b.Add("y")
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if !a.Contains("x") || !a.Contains("y") {
		t.Fatal("merged bloom must contain both sides' values")
	}
	if err := a.Merge(MustBloom(1024, 3)); err == nil {
		t.Fatal("expected error merging incompatible geometry")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge should be no-op, got %v", err)
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	b := MustBloom(9586, 7) // m = -n ln p / (ln 2)^2 and k = (m/n) ln 2 for n = 1000, p = 0.01
	for i := 0; i < 1000; i++ {
		b.Add("member-" + strconv.Itoa(i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.Contains("nonmember-" + strconv.Itoa(i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("false positive rate %.4f too high for target 0.01", rate)
	}
	if est := b.FalsePositiveRate(); est > 0.05 {
		t.Fatalf("estimated fp rate %.4f too high", est)
	}
}

func TestBloomCloneResetEqual(t *testing.T) {
	b := MustBloom(256, 2)
	b.Add("x")
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone should be Equal")
	}
	c.Add("different-value-that-changes-bits")
	if b.Equal(c) {
		t.Fatal("diverged clone should not be Equal")
	}
	c.Reset()
	if c.N != 0 || c.FillRatio() != 0 {
		t.Fatal("Reset should clear all state")
	}
	if b.Equal(nil) {
		t.Fatal("Equal(nil) must be false")
	}
}

func TestBloomSizeBytesConstant(t *testing.T) {
	b := MustBloom(1024, 4)
	before := b.SizeBytes()
	for i := 0; i < 500; i++ {
		b.Add(strconv.Itoa(i))
	}
	if b.SizeBytes() != before {
		t.Fatal("bloom size must be constant regardless of elements")
	}
}

// Property: Bloom filters never produce false negatives.
func TestBloomNoFalseNegativesQuick(t *testing.T) {
	f := func(vals []string) bool {
		b := MustBloom(2048, 3)
		for _, v := range vals {
			b.Add(v)
		}
		for _, v := range vals {
			if !b.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: merged bloom contains everything either side contained.
func TestBloomMergeSupersetQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := MustBloom(1024, 3), MustBloom(1024, 3)
		var all []string
		for i := 0; i < 20; i++ {
			v := strconv.FormatUint(rng.Uint64(), 16)
			all = append(all, v)
			if i%2 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		for _, v := range all {
			if !a.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
