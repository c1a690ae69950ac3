package btree

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// opSpec is a quick-generated mutation: Key is folded into a small key
// space so inserts and deletes collide often, exercising splits, merges
// and duplicate handling.
type opSpec struct {
	Key    uint16
	TID    uint16
	Delete bool
}

// TestQuickModelEquivalence drives the tree with quick-generated operation
// sequences against a map model, checking contents and invariants.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []opSpec) bool {
		tr, _ := newTestTree(t, 256, nil)
		model := make(map[Entry]bool)
		for _, op := range ops {
			key := float64(op.Key % 512)
			tid := uint32(op.TID%64) + 1
			e := Entry{Key: key, TID: tid}
			if op.Delete {
				found, err := tr.Delete(key, tid)
				if err != nil {
					t.Logf("delete error: %v", err)
					return false
				}
				if found != model[e] {
					t.Logf("delete presence mismatch for %v: tree %v, model %v", e, found, model[e])
					return false
				}
				delete(model, e)
			} else {
				err := tr.Insert(key, tid)
				if model[e] {
					if err == nil {
						t.Logf("duplicate insert of %v accepted", e)
						return false
					}
				} else {
					if err != nil {
						t.Logf("insert error: %v", err)
						return false
					}
					model[e] = true
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		got, err := tr.ScanAll()
		if err != nil {
			t.Logf("scan: %v", err)
			return false
		}
		if len(got) != len(model) {
			t.Logf("size: tree %d, model %d", len(got), len(model))
			return false
		}
		for _, e := range got {
			if !model[e] {
				t.Logf("extra entry %v", e)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSweepOrder: for any quick-generated key set, ascending and
// descending sweeps enumerate exactly the stored multiset in opposite
// orders.
func TestQuickSweepOrder(t *testing.T) {
	f := func(keys []uint16) bool {
		tr, _ := newTestTree(t, 256, nil)
		seen := make(map[Entry]bool)
		for i, k := range keys {
			e := Entry{Key: float64(k % 1024), TID: uint32(i + 1)}
			if err := tr.Insert(e.Key, e.TID); err != nil {
				return false
			}
			seen[e] = true
		}
		var asc []Entry
		if err := tr.VisitLeavesAsc(math.Inf(-1), func(lv LeafView) bool {
			asc = lv.AppendEntries(asc)
			return true
		}); err != nil {
			return false
		}
		var desc []Entry
		if err := tr.Sweep(math.Inf(1), false, nil, nil, func(lv LeafView) bool {
			leaf := lv.AppendEntries(nil)
			slices.Reverse(leaf)
			desc = append(desc, leaf...)
			return true
		}); err != nil {
			return false
		}
		if len(asc) != len(seen) || len(desc) != len(seen) {
			return false
		}
		for i := 1; i < len(asc); i++ {
			if asc[i].Less(asc[i-1]) {
				return false
			}
		}
		for i := range desc {
			if desc[i] != asc[len(asc)-1-i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
